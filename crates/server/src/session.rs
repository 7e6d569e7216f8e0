//! The session store: loaded scenarios with chased solutions, shared
//! across worker threads, sharded for concurrency, bounded by a
//! segmented-LRU eviction policy.
//!
//! A session is immutable once created (the pool, instances, and mapping
//! are never touched again), so workers share it through an `Arc` and drop
//! the store lock before doing any route computation. The only interior
//! mutability is the per-session forest cache.
//!
//! Edits (`POST /sessions/{id}/edit`) keep that immutability: applying a
//! batch builds a **new** `Session` — same id, edited scenario, bumped
//! [`edit_seq`](Session::edit_seq), carried-over match memos, forest cache
//! pre-seeded with the survivors — and [`SessionStore::replace`] swaps it
//! into the shard entry in place, preserving the entry's recency stamp and
//! segment bit. In-flight readers holding the old `Arc` keep a consistent
//! pre-edit snapshot; the per-session edit lock (shared across
//! incarnations) serializes editors.
//!
//! ## Sharding
//!
//! The store holds `N` independent shards (`N` from
//! [`ROUTES_SESSION_SHARDS`](SHARDS_ENV), else the machine's available
//! parallelism, clamped to the capacity), each its own
//! `RwLock<HashMap>` with a slice of the total capacity. Session ids are
//! assigned by one monotonic counter, so `shard_of(id) = id % N` *is* the
//! session-id hash: the id space is dense and server-assigned (no
//! adversarial keys), which makes the modulo perfectly balanced and — the
//! property the metrics-reconciliation tests lean on — deterministic.
//!
//! ## Segmented LRU, touched without a write lock
//!
//! The old store kept an LRU `Vec` and re-ordered it under the **write**
//! lock on every `get`, an `O(live sessions)` `retain` on the hottest path
//! in the service. Here a lookup takes the shard's **read** lock only, and
//! recency is two relaxed atomics on the entry: a last-touch stamp drawn
//! from a per-shard logical clock (`fetch_max`, so racing touches keep the
//! newest stamp) and a `protected` bit. New entries start in *probation*;
//! the first touch promotes them to *protected* (idempotent — promotion is
//! a plain `store(true)`). Eviction scans, which run per shard under the
//! write lock and are fanned out through the `routes-pool` worker pool,
//! first demote the oldest protected entries when the protected segment
//! exceeds its quota (¾ of the shard slice), then evict the
//! oldest-stamped probation entry. The scan is `O(shard)` but runs only
//! when a shard is over capacity; touches never scan anything, which the
//! operation counters below pin in a regression test.
//!
//! Evicted ids leave a bounded tombstone behind so the service can answer
//! "410 Gone" (evicted) distinctly from "404 Not Found" (deleted or never
//! created).
//!
//! ## Persistence
//!
//! The store itself is purely in-memory; durability lives in
//! `routes-store` and the server's `persist` module. This module supplies
//! the two halves of the mapping: *collection* ([`SessionStore::persist_state`]
//! images every shard — clocks, tombstones, entries with their recency
//! stamps and compact scenario origins — fanned out per shard over the
//! worker pool) and *reconstruction* ([`SessionStore::restore_state`]
//! rebuilds a snapshot image byte-identically at the same shard count,
//! [`SessionStore::replay_records`] re-applies WAL records in log order
//! through the same stamp/promote/tombstone code paths live traffic
//! uses). Replay draws fresh stamps from the shard clocks in WAL order,
//! so recency is reconstructed exactly for any deterministic history.

use std::collections::{HashMap, HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use routes_chase::{ChaseOptions, ChaseStats};
use routes_cli::{
    is_pipeline_scenario, load_pipeline_str, load_scenario_str, prepare_pipeline,
    prepare_scenario_with, LoadedPipeline, LoadedScenario, LoaderError, PreparedScenario,
};
use routes_core::{RouteEnv, RouteForest};
use routes_incr::IncrState;
use routes_model::{RelId, TupleId};
use routes_obs::Histogram;
use routes_pipeline::PreparedPipeline;
use routes_pool::Pool;
use routes_store::{
    ChaseMode, PersistedEntry, PersistedShard, Record, SelectionKey, SnapshotState,
};

/// Environment variable overriding the shard count (default: the
/// machine's available parallelism, clamped to `max_sessions`).
pub const SHARDS_ENV: &str = "ROUTES_SESSION_SHARDS";

/// Upper bounds (µs) of the per-shard lock-wait histograms; the last
/// bucket is unbounded. Lock waits are usually sub-microsecond, so the
/// buckets are much finer than the request-latency ones.
pub const LOCK_WAIT_BUCKETS_US: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// Evicted-id tombstones kept per shard (oldest dropped beyond this); a
/// tombstone is one `u64`, so the ceiling is memory noise next to one
/// loaded scenario.
const TOMBSTONES_PER_SHARD: usize = 4096;

/// The compact persistent representation of a session's scenario: the
/// source text plus the chase mode that materialized `J`. The chase is
/// deterministic at every worker count, so `(text, chase)` is a complete
/// recipe — recovery re-runs the chase instead of persisting the solution.
#[derive(Clone)]
pub struct SessionOrigin {
    pub chase: ChaseMode,
    pub text: Arc<str>,
}

/// What the restore/replay `prepare` callback rebuilds from a persisted
/// scenario text: the flat (final-hop) view every single-mapping endpoint
/// serves, plus the full chased pipeline when the text used the
/// multi-stage syntax. Core mode rides in the scenario text, so `(text,
/// chase)` stays a complete recipe for pipeline sessions too.
pub type PreparedSession = (PreparedScenario, Option<Arc<PreparedPipeline>>);

/// The chase options a session's chase mode stands for.
pub(crate) fn chase_options(mode: ChaseMode) -> ChaseOptions {
    match mode {
        ChaseMode::Fresh => ChaseOptions::fresh(),
        ChaseMode::Skolem => ChaseOptions::skolem(),
    }
}

/// Scenario text parsed by the loader its syntax selects: the pipeline
/// loader for `stage <name>:` / `pipeline:` text, the flat one otherwise.
pub(crate) enum LoadedText {
    /// A single-mapping scenario (boxed: it is the larger variant).
    Flat(Box<LoadedScenario>),
    /// A multi-stage pipeline scenario.
    Pipeline(LoadedPipeline),
}

impl LoadedText {
    /// Parse session text (see [`is_pipeline_scenario`]).
    pub(crate) fn load(text: &str) -> Result<LoadedText, LoaderError> {
        if is_pipeline_scenario(text) {
            load_pipeline_str(text).map(LoadedText::Pipeline)
        } else {
            load_scenario_str(text).map(|loaded| LoadedText::Flat(Box::new(loaded)))
        }
    }

    /// Chase the scenario (every hop of a pipeline) under `mode`.
    pub(crate) fn prepare(
        self,
        mode: ChaseMode,
        workers: &Pool,
    ) -> Result<PreparedSession, String> {
        let options = chase_options(mode);
        match self {
            LoadedText::Flat(loaded) => prepare_scenario_with(*loaded, options, workers)
                .map(|scenario| (scenario, None))
                .map_err(|e| e.to_string()),
            LoadedText::Pipeline(loaded) => prepare_pipeline(loaded, options, workers)
                .map(|(scenario, pipeline)| (scenario, Some(Arc::new(pipeline))))
                .map_err(|e| e.to_string()),
        }
    }
}

/// One loaded scenario with its chased (or supplied) solution.
pub struct Session {
    pub id: u64,
    pub scenario: PreparedScenario,
    /// The full stage chain, for pipeline scenarios; `scenario` is then
    /// the final hop's `(M, I, J)` view of the same chase.
    pipeline: Option<Arc<PreparedPipeline>>,
    /// The compact representation this session can be rebuilt from;
    /// `None` for sessions injected directly by tests and benchmarks
    /// (those are invisible to snapshots).
    origin: Option<SessionOrigin>,
    /// How many edit batches `scenario` reflects; the WAL's `Edit` records
    /// carry the post-batch value, which makes replay idempotent.
    edit_seq: u64,
    /// Per-tgd match memos carried between edit batches (empty until the
    /// first edit, and after recovery — the next edit re-warms them).
    incr: IncrState,
    /// Serializes editors. The lock is shared by every incarnation of the
    /// same session id, so two concurrent edits of one session queue even
    /// though each builds its own replacement `Session`.
    edit_lock: Arc<Mutex<()>>,
    /// Memoized route forests keyed by the *sorted* selected-tuple set, so
    /// `[t1, t2]` and `[t2, t1]` share an entry (`compute_all_routes` is
    /// order-insensitive in its result, per the forest's memoization).
    forest_cache: Mutex<HashMap<Vec<TupleId>, Arc<RouteForest>>>,
}

impl Session {
    fn with_origin(
        id: u64,
        scenario: PreparedScenario,
        pipeline: Option<Arc<PreparedPipeline>>,
        origin: Option<SessionOrigin>,
        edit_seq: u64,
    ) -> Self {
        Session {
            id,
            scenario,
            pipeline,
            origin,
            edit_seq,
            incr: IncrState::default(),
            edit_lock: Arc::new(Mutex::new(())),
            forest_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The post-edit incarnation of this session: same id, shared edit
    /// lock, new scenario/origin/memos, forest cache pre-seeded with the
    /// surviving entries.
    pub fn edited(
        &self,
        scenario: PreparedScenario,
        origin: SessionOrigin,
        edit_seq: u64,
        incr: IncrState,
        forests: HashMap<Vec<TupleId>, Arc<RouteForest>>,
    ) -> Session {
        Session {
            id: self.id,
            scenario,
            // Edits are rejected on pipeline sessions (the mutation API
            // speaks the flat syntax), so an edited incarnation is flat.
            pipeline: None,
            origin: Some(origin),
            edit_seq,
            incr,
            edit_lock: Arc::clone(&self.edit_lock),
            forest_cache: Mutex::new(forests),
        }
    }

    /// The compact representation this session can be rebuilt from, if
    /// it was created through the persistable path.
    pub fn origin(&self) -> Option<&SessionOrigin> {
        self.origin.as_ref()
    }

    /// The full stage chain, for pipeline sessions.
    pub fn pipeline(&self) -> Option<&Arc<PreparedPipeline>> {
        self.pipeline.as_ref()
    }

    /// How many edit batches this incarnation reflects.
    pub fn edit_seq(&self) -> u64 {
        self.edit_seq
    }

    /// The match memos the next edit batch starts from.
    pub fn incr_state(&self) -> &IncrState {
        &self.incr
    }

    /// The editor lock shared across this session's incarnations. Returned
    /// by `Arc` so the guard can outlive a store re-fetch.
    pub fn edit_lock(&self) -> Arc<Mutex<()>> {
        Arc::clone(&self.edit_lock)
    }

    /// Snapshot of the forest cache (selection key, forest) pairs, for
    /// survivor selection during an edit.
    pub fn forest_entries(&self) -> Vec<(Vec<TupleId>, Arc<RouteForest>)> {
        self.lock_forest_cache()
            .iter()
            .map(|(k, f)| (k.clone(), Arc::clone(f)))
            .collect()
    }

    /// The route environment over this session's `(M, I, J)`.
    pub fn env(&self) -> RouteEnv<'_> {
        RouteEnv::new(
            &self.scenario.mapping,
            &self.scenario.source,
            &self.scenario.target,
        )
    }

    /// Chase statistics, if a chase materialized the solution.
    pub fn chase_stats(&self) -> Option<ChaseStats> {
        self.scenario.chase_stats.clone()
    }

    /// Look up or compute the forest for a selection, fanning branch
    /// computation out over `workers` on a miss. Returns the forest, whether
    /// it was served from the cache, and the construction wall time (zero on
    /// a hit).
    pub fn forest_for(
        &self,
        selected: &[TupleId],
        workers: &Pool,
    ) -> (Arc<RouteForest>, bool, Duration) {
        let mut key: Vec<TupleId> = selected.to_vec();
        key.sort_unstable_by_key(|t| (t.rel.0, t.row));
        key.dedup();
        if let Some(found) = self.lock_forest_cache().get(&key) {
            return (Arc::clone(found), true, Duration::ZERO);
        }
        // Compute outside the lock: forests can be expensive and other
        // selections should not queue behind this one.
        let start = Instant::now();
        let forest = Arc::new(routes_core::compute_all_routes_with_pool(
            self.env(),
            &key,
            workers,
        ));
        let wall = start.elapsed();
        let mut cache = self.lock_forest_cache();
        let entry = cache.entry(key).or_insert_with(|| Arc::clone(&forest));
        (Arc::clone(entry), false, wall)
    }

    /// Number of cached forests (for the session view).
    pub fn cached_forests(&self) -> usize {
        self.lock_forest_cache().len()
    }

    /// The memoized selection keys as persistable `(relation, row)` pairs,
    /// sorted for deterministic snapshots.
    pub fn cached_forest_keys(&self) -> Vec<SelectionKey> {
        let cache = self.lock_forest_cache();
        let mut keys: Vec<SelectionKey> = cache
            .keys()
            .map(|key| key.iter().map(|t| (t.rel.0, t.row)).collect())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The forest cache's mutex, recovering from poisoning: every write
    /// into the map is a single `HashMap` operation, so a thread that
    /// panicked while holding the lock (e.g. a route computation bug
    /// caught by the connection-level `catch_unwind`) cannot leave a
    /// half-written cache behind, and the surviving workers keep serving.
    fn lock_forest_cache(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<Vec<TupleId>, Arc<RouteForest>>> {
        self.forest_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The result of a store lookup: the distinction between *evicted* and
/// *never existed / deleted* is what lets the service answer 410 vs 404.
pub enum SessionLookup {
    /// Resident; the session was touched (marked most-recently-used).
    Found(Arc<Session>),
    /// Known to have been evicted by the LRU bound.
    Evicted,
    /// Never created, deleted, or evicted so long ago the tombstone aged out.
    Missing,
}

impl SessionLookup {
    /// The session, if resident.
    pub fn session(self) -> Option<Arc<Session>> {
        match self {
            SessionLookup::Found(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the lookup found a resident session.
    pub fn is_found(&self) -> bool {
        matches!(self, SessionLookup::Found(_))
    }
}

/// The result of a `remove`: mirrors [`SessionLookup`] for DELETE answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Removal {
    /// The session was live and is now deleted.
    Removed,
    /// Already evicted by the LRU bound (nothing to delete).
    Evicted,
    /// Never existed (or already deleted).
    Missing,
}

/// A map entry: the shared session plus its recency state. Lookups clone
/// the `Arc<Entry>` under the read lock and touch *after* dropping it, so
/// a touch can race an eviction — harmlessly, because stamps and the
/// protected bit live on the entry, and an entry removed from the map is
/// never scanned again (a touch cannot resurrect it).
struct Entry {
    session: Arc<Session>,
    /// Last-touch stamp from the owning shard's logical clock; insert
    /// stamps count too, so "newest entry" is well defined.
    touch: AtomicU64,
    /// Segmented-LRU segment: `false` = probation (not touched since
    /// insert or demotion), `true` = protected.
    protected: AtomicBool,
}

impl Entry {
    fn new(session: Arc<Session>, stamp: u64) -> Arc<Entry> {
        Arc::new(Entry {
            session,
            touch: AtomicU64::new(stamp),
            protected: AtomicBool::new(false),
        })
    }

    /// Draw the next stamp from a shard clock.
    fn next_stamp(clock: &AtomicU64) -> u64 {
        clock.fetch_add(1, Relaxed) + 1
    }

    /// Record a touch stamp. `fetch_max`, not `store`: two racing touches
    /// must leave the *newest* stamp, whichever thread writes last.
    fn record_stamp(&self, stamp: u64) {
        self.touch.fetch_max(stamp, Relaxed);
    }

    /// Promote probation → protected. Idempotent by construction.
    fn promote(&self) {
        self.protected.store(true, Relaxed);
    }

    /// The full touch path: stamp, then promote.
    fn touch(&self, clock: &AtomicU64) {
        self.record_stamp(Self::next_stamp(clock));
        self.promote();
    }
}

/// Log one recovery drop: a persisted session or edit that no longer
/// applies and is skipped rather than failing recovery.
fn log_recovery_drop(id: u64, record: &str, error: &str) {
    routes_obs::log(
        routes_obs::Level::Warn,
        "recovery_drop",
        &[
            ("session", routes_obs::Value::from(id)),
            ("record", routes_obs::Value::from(record)),
            ("error", routes_obs::Value::from(error)),
        ],
    );
}

/// Per-shard operation counters, all relaxed atomics. `evict_scan_steps`
/// and `write_locks` double as the touch-cost regression counters: lookups
/// must never contribute to either.
#[derive(Default)]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
    evictions: AtomicU64,
    demotions: AtomicU64,
    /// Entries examined by eviction victim scans.
    evict_scan_steps: AtomicU64,
    /// Write-lock acquisitions (inserts, removes, eviction scans — never
    /// lookups; the pre-shard store write-locked on every `get`).
    write_locks: AtomicU64,
}

struct ShardInner {
    sessions: HashMap<u64, Arc<Entry>>,
    /// Evicted-id tombstones, oldest first, mirrored in `gone_set`.
    gone: VecDeque<u64>,
    gone_set: HashSet<u64>,
}

struct Shard {
    inner: RwLock<ShardInner>,
    /// Logical clock ordering inserts and touches within this shard.
    clock: AtomicU64,
    /// Occupancy mirror maintained under the write lock, so capacity
    /// checks and `len()` never take a lock.
    occupancy: AtomicUsize,
    /// This shard's slice of the store capacity (≥ 1).
    capacity: usize,
    stats: ShardStats,
    /// Lock-acquisition waits over [`LOCK_WAIT_BUCKETS_US`], by mode.
    read_wait: Histogram,
    write_wait: Histogram,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            inner: RwLock::new(ShardInner {
                sessions: HashMap::new(),
                gone: VecDeque::new(),
                gone_set: HashSet::new(),
            }),
            clock: AtomicU64::new(0),
            occupancy: AtomicUsize::new(0),
            capacity,
            stats: ShardStats::default(),
            read_wait: Histogram::new(&LOCK_WAIT_BUCKETS_US),
            write_wait: Histogram::new(&LOCK_WAIT_BUCKETS_US),
        }
    }

    // Both lock paths recover from poisoning instead of unwrapping: a
    // worker that panicked under the lock (the server wraps handlers in
    // `catch_unwind`) must not take the whole shard down with it. The
    // map and tombstone structures are updated by single operations, and
    // the `occupancy` mirror is re-stored after every mutation, so the
    // state a poisoned guard exposes is at worst mid-request, never
    // structurally broken.
    fn read_locked(&self) -> RwLockReadGuard<'_, ShardInner> {
        // The span covers acquisition only, so its duration is the lock
        // wait a request actually observed, not the hold time. It reuses
        // the stats measurement (`record_current`), keeping the traced
        // hot path free of extra clock reads.
        let start = Instant::now();
        let guard = self
            .inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let wait = start.elapsed();
        self.read_wait
            .record(wait.as_micros().min(u128::from(u64::MAX)) as u64);
        routes_obs::record_current("session_lock_read", start, wait);
        guard
    }

    fn write_locked(&self) -> RwLockWriteGuard<'_, ShardInner> {
        let start = Instant::now();
        let guard = self
            .inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let wait = start.elapsed();
        self.write_wait
            .record(wait.as_micros().min(u128::from(u64::MAX)) as u64);
        self.stats.write_locks.fetch_add(1, Relaxed);
        routes_obs::record_current("session_lock_write", start, wait);
        guard
    }

    /// Look up `id`, touching it if resident. Read lock only; the touch
    /// happens on the cloned entry after the lock is dropped.
    fn lookup(&self, id: u64) -> SessionLookup {
        let found = {
            let inner = self.read_locked();
            match inner.sessions.get(&id) {
                Some(entry) => Ok(Arc::clone(entry)),
                None => Err(inner.gone_set.contains(&id)),
            }
        };
        match found {
            Ok(entry) => {
                entry.touch(&self.clock);
                self.stats.hits.fetch_add(1, Relaxed);
                SessionLookup::Found(Arc::clone(&entry.session))
            }
            Err(evicted) => {
                self.stats.misses.fetch_add(1, Relaxed);
                if evicted {
                    SessionLookup::Evicted
                } else {
                    SessionLookup::Missing
                }
            }
        }
    }

    fn insert(&self, id: u64, session: Arc<Session>) {
        let mut inner = self.write_locked();
        let stamp = Entry::next_stamp(&self.clock);
        inner.sessions.insert(id, Entry::new(session, stamp));
        self.occupancy.store(inner.sessions.len(), Relaxed);
        drop(inner);
        self.stats.inserts.fetch_add(1, Relaxed);
    }

    fn remove(&self, id: u64) -> Removal {
        let mut inner = self.write_locked();
        if inner.sessions.remove(&id).is_some() {
            self.occupancy.store(inner.sessions.len(), Relaxed);
            drop(inner);
            self.stats.removes.fetch_add(1, Relaxed);
            Removal::Removed
        } else if inner.gone_set.contains(&id) {
            Removal::Evicted
        } else {
            Removal::Missing
        }
    }

    /// The protected segment's quota: at most ¾ of the slice, and always
    /// strictly under it, so an over-capacity scan can demote.
    fn protected_quota(&self) -> usize {
        (self.capacity * 3 / 4).min(self.capacity.saturating_sub(1))
    }

    /// Evict until at or under capacity; the returned ids are in eviction
    /// order. No-ops (without locking) when the shard is within bounds.
    fn evict_over_capacity(&self) -> Vec<u64> {
        if self.occupancy.load(Relaxed) <= self.capacity {
            return Vec::new();
        }
        let mut inner = self.write_locked();
        let mut evicted = Vec::new();
        while inner.sessions.len() > self.capacity {
            let victim = self.pick_victim(&inner);
            inner.sessions.remove(&victim);
            push_tombstone(&mut inner, victim);
            evicted.push(victim);
        }
        self.occupancy.store(inner.sessions.len(), Relaxed);
        drop(inner);
        self.stats
            .evictions
            .fetch_add(evicted.len() as u64, Relaxed);
        evicted
    }

    /// One victim-selection scan (write lock held by the caller): demote
    /// the oldest protected entries past the quota, then take the
    /// oldest-stamped probation entry. Ties break on id, so the choice is
    /// independent of `HashMap` iteration order.
    fn pick_victim(&self, inner: &ShardInner) -> u64 {
        let mut probation: Vec<(u64, u64)> = Vec::new();
        let mut protected: Vec<(u64, u64)> = Vec::new();
        for (&id, entry) in &inner.sessions {
            let key = (entry.touch.load(Relaxed), id);
            if entry.protected.load(Relaxed) {
                protected.push(key);
            } else {
                probation.push(key);
            }
        }
        self.stats
            .evict_scan_steps
            .fetch_add(inner.sessions.len() as u64, Relaxed);
        let quota = self.protected_quota();
        if protected.len() > quota {
            protected.sort_unstable();
            for &(_, id) in &protected[..protected.len() - quota] {
                inner.sessions[&id].protected.store(false, Relaxed);
            }
            self.stats
                .demotions
                .fetch_add((protected.len() - quota) as u64, Relaxed);
            probation.extend(protected.drain(..protected.len() - quota));
        }
        // Over capacity ⇒ occupancy > capacity > quota ⇒ probation holds at
        // least two entries after demotion, so the just-inserted (newest
        // stamp) entry is never the minimum.
        probation
            .into_iter()
            .min()
            .expect("eviction scan on an over-capacity shard")
            .1
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            sessions: self.occupancy.load(Relaxed),
            capacity: self.capacity,
            hits: self.stats.hits.load(Relaxed),
            misses: self.stats.misses.load(Relaxed),
            inserts: self.stats.inserts.load(Relaxed),
            removes: self.stats.removes.load(Relaxed),
            evictions: self.stats.evictions.load(Relaxed),
            demotions: self.stats.demotions.load(Relaxed),
            evict_scan_steps: self.stats.evict_scan_steps.load(Relaxed),
            write_locks: self.stats.write_locks.load(Relaxed),
            lock_wait_read_us: self.read_wait.counts().collect(),
            lock_wait_write_us: self.write_wait.counts().collect(),
        }
    }
}

/// One shard's counters at a point in time (`/metrics` renders these).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    pub sessions: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub removes: u64,
    pub evictions: u64,
    pub demotions: u64,
    pub evict_scan_steps: u64,
    pub write_locks: u64,
    /// Bucket counts over [`LOCK_WAIT_BUCKETS_US`] (+1 unbounded bucket).
    pub lock_wait_read_us: Vec<u64>,
    pub lock_wait_write_us: Vec<u64>,
}

/// The whole store's counters at a point in time.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// Total capacity (the sum of the per-shard slices).
    pub capacity: usize,
    pub shards: Vec<ShardSnapshot>,
}

impl StoreSnapshot {
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.sessions).sum()
    }

    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    pub fn inserts(&self) -> u64 {
        self.shards.iter().map(|s| s.inserts).sum()
    }

    pub fn removes(&self) -> u64 {
        self.shards.iter().map(|s| s.removes).sum()
    }

    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    pub fn evict_scan_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.evict_scan_steps).sum()
    }

    pub fn write_locks(&self) -> u64 {
        self.shards.iter().map(|s| s.write_locks).sum()
    }

    /// The canonical shard-count-independent accounting line: for one
    /// deterministic workload, this renders byte-identically at every
    /// shard count (the concurrency suite asserts exactly that).
    pub fn accounting_line(&self) -> String {
        format!(
            "hits={} misses={} inserts={} removes={} evictions={} live={}",
            self.hits(),
            self.misses(),
            self.inserts(),
            self.removes(),
            self.evictions(),
            self.live(),
        )
    }
}

/// Shared, bounded, sharded session store.
pub struct SessionStore {
    shards: Vec<Shard>,
    next_id: AtomicU64,
    max_sessions: usize,
}

impl SessionStore {
    /// An empty store holding at most `max_sessions` (≥ 1) sessions, with
    /// the shard count taken from [`SHARDS_ENV`] or the machine's
    /// available parallelism.
    pub fn new(max_sessions: usize) -> Self {
        SessionStore::with_shards(max_sessions, Self::shards_from_env())
    }

    /// [`SessionStore::new`] with an explicit shard count (tests and
    /// benchmarks pin it). Clamped to `1..=max_sessions` so every shard
    /// owns at least one capacity slot.
    pub fn with_shards(max_sessions: usize, shards: usize) -> Self {
        let max_sessions = max_sessions.max(1);
        let shards = shards.clamp(1, max_sessions);
        let base = max_sessions / shards;
        let extra = max_sessions % shards;
        SessionStore {
            shards: (0..shards)
                .map(|k| Shard::new(base + usize::from(k < extra)))
                .collect(),
            next_id: AtomicU64::new(1),
            max_sessions,
        }
    }

    fn shards_from_env() -> usize {
        std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The total capacity bound.
    pub fn capacity(&self) -> usize {
        self.max_sessions
    }

    /// The shard an id lives in: ids are dense and server-assigned, so the
    /// modulo is the hash (see the module docs for the determinism
    /// argument).
    pub fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Insert a prepared scenario; returns its fresh id plus the ids of
    /// any sessions evicted to stay under the bound. The eviction scan
    /// fans out per shard over `workers`.
    pub fn insert(&self, scenario: PreparedScenario, workers: &Pool) -> (u64, Vec<u64>) {
        self.insert_session(scenario, None, None, workers)
    }

    /// [`SessionStore::insert`] with the compact origin the session can
    /// later be rebuilt from; the server's persistable creation path uses
    /// this so snapshots can see the session.
    pub fn insert_with_origin(
        &self,
        scenario: PreparedScenario,
        origin: SessionOrigin,
        workers: &Pool,
    ) -> (u64, Vec<u64>) {
        self.insert_session(scenario, None, Some(origin), workers)
    }

    /// [`SessionStore::insert_with_origin`] carrying the full prepared
    /// pipeline alongside the flat final-hop view (pipeline creations).
    pub fn insert_prepared(
        &self,
        scenario: PreparedScenario,
        pipeline: Option<Arc<PreparedPipeline>>,
        origin: SessionOrigin,
        workers: &Pool,
    ) -> (u64, Vec<u64>) {
        self.insert_session(scenario, pipeline, Some(origin), workers)
    }

    fn insert_session(
        &self,
        scenario: PreparedScenario,
        pipeline: Option<Arc<PreparedPipeline>>,
        origin: Option<SessionOrigin>,
        workers: &Pool,
    ) -> (u64, Vec<u64>) {
        let id = self.next_id.fetch_add(1, Relaxed);
        let session = Arc::new(Session::with_origin(id, scenario, pipeline, origin, 0));
        let shard = &self.shards[self.shard_of(id)];
        shard.insert(id, session);
        let evicted = if shard.occupancy.load(Relaxed) > shard.capacity {
            self.scan_evict(workers)
        } else {
            Vec::new()
        };
        (id, evicted)
    }

    /// Run one eviction scan across every shard, fanned out over
    /// `workers`; shards within bounds are skipped without locking.
    /// Returns evicted ids in deterministic shard order. Inserts call this
    /// whenever they push a shard over its slice; it is also a standalone
    /// maintenance entry point.
    pub fn scan_evict(&self, workers: &Pool) -> Vec<u64> {
        workers.par_flat_map_items(&self.shards, 1, Shard::evict_over_capacity)
    }

    /// Fetch a session; a hit marks it most-recently-used (read lock +
    /// atomic touch — never the write lock).
    pub fn get(&self, id: u64) -> SessionLookup {
        self.shards[self.shard_of(id)].lookup(id)
    }

    /// Fetch without touching: no recency stamp, no hit/miss accounting.
    /// The edit path re-validates its session under the edit lock with
    /// this, so a live edit perturbs exactly the state WAL replay will
    /// reconstruct (one `Touch` + one `Edit` per batch).
    pub fn peek(&self, id: u64) -> SessionLookup {
        let shard = &self.shards[self.shard_of(id)];
        let inner = shard.read_locked();
        match inner.sessions.get(&id) {
            Some(entry) => SessionLookup::Found(Arc::clone(&entry.session)),
            None if inner.gone_set.contains(&id) => SessionLookup::Evicted,
            None => SessionLookup::Missing,
        }
    }

    /// Swap a session's incarnation in place: the shard entry keeps its
    /// recency stamp and segment bit, only the `Arc<Session>` changes.
    /// Returns `false` (without inserting) if the id is no longer resident
    /// — a concurrent DELETE or eviction wins over the edit.
    pub fn replace(&self, id: u64, session: Arc<Session>) -> bool {
        let shard = &self.shards[self.shard_of(id)];
        let mut inner = shard.write_locked();
        let Some(old) = inner.sessions.get(&id) else {
            return false;
        };
        let stored = Entry::new(session, old.touch.load(Relaxed));
        stored.protected.store(old.protected.load(Relaxed), Relaxed);
        inner.sessions.insert(id, stored);
        true
    }

    /// Remove a session, distinguishing live, evicted, and unknown ids.
    pub fn remove(&self, id: u64) -> Removal {
        self.shards[self.shard_of(id)].remove(id)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy.load(Relaxed)).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A counters snapshot for `/metrics`.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            capacity: self.max_sessions,
            shards: self.shards.iter().map(Shard::snapshot).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Persistence: collection and reconstruction (see the module docs).
    // ------------------------------------------------------------------

    /// Image the store for a snapshot: per-shard clocks and tombstones
    /// plus every persistable entry (sessions injected without an origin —
    /// tests, benchmarks — are invisible to snapshots). Collection fans
    /// out per shard over `workers`; each shard is imaged under its read
    /// lock, and the caller (the server's checkpoint) holds the WAL
    /// rotation lock across the whole call, so every concurrent mutation
    /// lands either in this image or in a WAL record ordered after it.
    pub fn persist_state(&self, workers: &Pool) -> SnapshotState {
        let per_shard: Vec<(PersistedShard, Vec<PersistedEntry>)> =
            workers.par_map_items(&self.shards, 1, |shard| {
                let inner = shard.read_locked();
                let image = PersistedShard {
                    clock: shard.clock.load(Relaxed),
                    tombstones: inner.gone.iter().copied().collect(),
                };
                let mut entries: Vec<PersistedEntry> = inner
                    .sessions
                    .iter()
                    .filter_map(|(&id, entry)| {
                        let origin = entry.session.origin()?;
                        Some(PersistedEntry {
                            id,
                            stamp: entry.touch.load(Relaxed),
                            protected: entry.protected.load(Relaxed),
                            chase: origin.chase,
                            edit_seq: entry.session.edit_seq,
                            scenario: origin.text.to_string(),
                            forests: entry.session.cached_forest_keys(),
                        })
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.id);
                (image, entries)
            });
        let mut state = SnapshotState {
            next_id: self.next_id.load(Relaxed),
            shards: Vec::with_capacity(per_shard.len()),
            entries: Vec::new(),
        };
        for (image, entries) in per_shard {
            state.shards.push(image);
            state.entries.extend(entries);
        }
        // Ids are assigned round-robin across shards, so the per-shard
        // sorted runs interleave; one global sort restores id order.
        state.entries.sort_unstable_by_key(|e| e.id);
        state
    }

    /// Rebuild the store from a snapshot image (recovery calls this on an
    /// empty store before WAL replay). At the image's shard count the
    /// restoration is byte-identical: exact per-shard clocks, tombstones
    /// in deque order, every entry's stamp and segment bit. At a
    /// different shard count it is semantically equivalent instead: all
    /// shard clocks start at the image's maximum (so every later stamp
    /// sorts after every restored one) and tombstones re-shard by id.
    /// Scenario preparation — the chase — dominates recovery time and
    /// fans out over `workers`; an entry whose text no longer prepares
    /// (`prepare` returning an error) is dropped and logged rather than
    /// aborting recovery. Returns the number of dropped entries.
    pub fn restore_state(
        &self,
        state: &SnapshotState,
        workers: &Pool,
        prepare: &(dyn Fn(&str, ChaseMode) -> Result<PreparedSession, String> + Sync),
    ) -> usize {
        self.next_id.fetch_max(state.next_id, Relaxed);
        if state.shards.len() == self.shards.len() {
            for (shard, image) in self.shards.iter().zip(&state.shards) {
                shard.clock.fetch_max(image.clock, Relaxed);
                let mut inner = shard.write_locked();
                for &id in &image.tombstones {
                    push_tombstone(&mut inner, id);
                }
            }
        } else {
            let max_clock = state.shards.iter().map(|s| s.clock).max().unwrap_or(0);
            for shard in &self.shards {
                shard.clock.fetch_max(max_clock, Relaxed);
            }
            for image in &state.shards {
                for &id in &image.tombstones {
                    let mut inner = self.shards[self.shard_of(id)].write_locked();
                    push_tombstone(&mut inner, id);
                }
            }
        }
        let prepared: Vec<Result<PreparedSession, String>> =
            workers.par_map_items(&state.entries, 1, |entry| {
                prepare(&entry.scenario, entry.chase)
            });
        let mut dropped = 0usize;
        for (entry, prepared) in state.entries.iter().zip(prepared) {
            let (scenario, pipeline) = match prepared {
                Ok(prepared) => prepared,
                Err(error) => {
                    dropped += 1;
                    log_recovery_drop(entry.id, "snapshot", &error);
                    continue;
                }
            };
            let origin = SessionOrigin {
                chase: entry.chase,
                text: Arc::from(entry.scenario.as_str()),
            };
            let session = Arc::new(Session::with_origin(
                entry.id,
                scenario,
                pipeline,
                Some(origin),
                entry.edit_seq,
            ));
            self.warm_forests(&session, &entry.forests, workers);
            let shard = &self.shards[self.shard_of(entry.id)];
            let stored = Entry::new(Arc::clone(&session), entry.stamp);
            stored.protected.store(entry.protected, Relaxed);
            let mut inner = shard.write_locked();
            inner.sessions.insert(entry.id, stored);
            shard.occupancy.store(inner.sessions.len(), Relaxed);
        }
        dropped
    }

    /// Re-apply WAL records in log order on top of a restored snapshot.
    /// Creates draw fresh stamps from the shard clocks exactly as live
    /// inserts do, touches run the live stamp/promote path, deletes and
    /// evictions remove (evictions leaving the bounded tombstone) — so a
    /// deterministic history replays to the same recency structure it
    /// produced live. A Create whose id is tombstoned is skipped: ids are
    /// never reused, so the Evict/Delete that follows it in the log (or
    /// preceded it in a racy interleaving) is authoritative. A Create
    /// whose text no longer prepares, or an Edit whose ops or edited text
    /// no longer apply, is dropped and logged. Returns the number of
    /// dropped records.
    pub fn replay_records(
        &self,
        records: &[Record],
        workers: &Pool,
        prepare: &(dyn Fn(&str, ChaseMode) -> Result<PreparedSession, String> + Sync),
    ) -> usize {
        let mut dropped = 0usize;
        for record in records {
            match record {
                Record::Create {
                    id,
                    chase,
                    scenario,
                } => {
                    let shard = &self.shards[self.shard_of(*id)];
                    if shard.read_locked().gone_set.contains(id) {
                        continue;
                    }
                    let (prep, pipeline) = match prepare(scenario, *chase) {
                        Ok(prepared) => prepared,
                        Err(error) => {
                            dropped += 1;
                            log_recovery_drop(*id, "create", &error);
                            continue;
                        }
                    };
                    // Keep the id counter ahead of every replayed id even
                    // if the log tail (where the counter would have been
                    // snapshotted) was lost.
                    self.next_id.fetch_max(id + 1, Relaxed);
                    let origin = SessionOrigin {
                        chase: *chase,
                        text: Arc::from(scenario.as_str()),
                    };
                    let session =
                        Arc::new(Session::with_origin(*id, prep, pipeline, Some(origin), 0));
                    let stamp = Entry::next_stamp(&shard.clock);
                    let mut inner = shard.write_locked();
                    inner.sessions.insert(*id, Entry::new(session, stamp));
                    shard.occupancy.store(inner.sessions.len(), Relaxed);
                }
                Record::Touch { id } => {
                    let shard = &self.shards[self.shard_of(*id)];
                    let entry = shard.read_locked().sessions.get(id).cloned();
                    if let Some(entry) = entry {
                        entry.touch(&shard.clock);
                    }
                }
                Record::Delete { id } => {
                    let shard = &self.shards[self.shard_of(*id)];
                    let mut inner = shard.write_locked();
                    if inner.sessions.remove(id).is_some() {
                        shard.occupancy.store(inner.sessions.len(), Relaxed);
                    }
                }
                Record::Evict { id } => {
                    let shard = &self.shards[self.shard_of(*id)];
                    let mut inner = shard.write_locked();
                    inner.sessions.remove(id);
                    push_tombstone(&mut inner, *id);
                    shard.occupancy.store(inner.sessions.len(), Relaxed);
                }
                Record::Forest { id, selection } => {
                    let session = self.shards[self.shard_of(*id)]
                        .read_locked()
                        .sessions
                        .get(id)
                        .map(|e| Arc::clone(&e.session));
                    if let Some(session) = session {
                        self.warm_forests(&session, std::slice::from_ref(selection), workers);
                    }
                }
                Record::Edit { id, seq, ops } => {
                    // Idempotent by sequence number: a snapshot taken after
                    // the batch already reflects it, so replaying on top
                    // would double-apply. Replay re-edits the canonical text
                    // and chases its parse from scratch — recovery optimizes
                    // for correctness, not latency; the chase is
                    // deterministic, so the result matches the live
                    // incremental apply byte for byte. Memos restart empty
                    // and forests re-warm from later `Forest` records.
                    let shard = &self.shards[self.shard_of(*id)];
                    let session = shard
                        .read_locked()
                        .sessions
                        .get(id)
                        .map(|e| Arc::clone(&e.session));
                    let Some(session) = session else { continue };
                    if *seq <= session.edit_seq {
                        continue;
                    }
                    let Some(origin) = session.origin() else {
                        continue;
                    };
                    // Edits only exist for flat sessions, so the replayed
                    // incarnation never carries a pipeline.
                    let edited = routes_incr::apply_edits(&origin.text, ops)
                        .map_err(|e| e.to_string())
                        .and_then(|(text, loaded)| {
                            prepare_scenario_with(loaded, chase_options(origin.chase), workers)
                                .map(|prep| (prep, text))
                                .map_err(|e| e.to_string())
                        });
                    let (prep, text) = match edited {
                        Ok(edited) => edited,
                        Err(error) => {
                            dropped += 1;
                            log_recovery_drop(*id, "edit", &error);
                            continue;
                        }
                    };
                    let new_origin = SessionOrigin {
                        chase: origin.chase,
                        text: Arc::from(text.as_str()),
                    };
                    let replaced = Arc::new(session.edited(
                        prep,
                        new_origin,
                        *seq,
                        IncrState::default(),
                        HashMap::new(),
                    ));
                    self.replace(*id, replaced);
                }
            }
        }
        dropped
    }

    /// Recompute persisted forest-cache keys for a restored session,
    /// skipping any selection that no longer names valid tuples (the
    /// scenario text is the source of truth; a key that validated when
    /// written validates again unless the codec versions drifted).
    fn warm_forests(&self, session: &Session, keys: &[SelectionKey], workers: &Pool) {
        let target = &session.scenario.target;
        for key in keys {
            let tuples: Vec<TupleId> = key
                .iter()
                .map(|&(rel, row)| TupleId {
                    rel: RelId(rel),
                    row,
                })
                .collect();
            let valid = tuples.iter().all(|t| {
                (t.rel.0 as usize) < target.num_relations() && t.row < target.rel_len(t.rel)
            });
            if valid {
                session.forest_for(&tuples, workers);
            }
        }
    }
}

/// Record an eviction tombstone in a shard (shared by the live eviction
/// scan's inline version and the restore/replay paths), bounded by
/// [`TOMBSTONES_PER_SHARD`].
fn push_tombstone(inner: &mut ShardInner, id: u64) {
    if inner.gone_set.insert(id) {
        inner.gone.push_back(id);
        if inner.gone.len() > TOMBSTONES_PER_SHARD {
            if let Some(old) = inner.gone.pop_front() {
                inner.gone_set.remove(&old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_chase::ChaseOptions;
    use routes_cli::{load_scenario_str, prepare_scenario};

    fn scenario(tag: i64) -> PreparedScenario {
        let text = format!(
            "source schema:\n  S(a)\ntarget schema:\n  T(a)\n\
             dependencies:\n  m: S(x) -> T(x)\nsource data:\n  S({tag})\n"
        );
        prepare_scenario(load_scenario_str(&text).unwrap(), ChaseOptions::fresh()).unwrap()
    }

    fn seq() -> Pool {
        Pool::sequential()
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let store = SessionStore::with_shards(2, 1);
        let (a, ev) = store.insert(scenario(1), &seq());
        assert!(ev.is_empty());
        let (b, ev) = store.insert(scenario(2), &seq());
        assert!(ev.is_empty());
        // Touch a so b becomes the LRU victim.
        assert!(store.get(a).is_found());
        let (c, ev) = store.insert(scenario(3), &seq());
        assert_eq!(ev, vec![b], "b was least recently used");
        assert!(matches!(store.get(b), SessionLookup::Evicted));
        assert!(store.get(a).is_found());
        assert!(store.get(c).is_found());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_frees_a_slot_and_classifies_misses() {
        let store = SessionStore::with_shards(1, 1);
        let (a, _) = store.insert(scenario(1), &seq());
        assert_eq!(store.remove(a), Removal::Removed);
        assert_eq!(
            store.remove(a),
            Removal::Missing,
            "second delete is a no-op"
        );
        assert!(store.is_empty());
        assert!(
            matches!(store.get(a), SessionLookup::Missing),
            "deleted is Missing, not Evicted"
        );
        let (b, ev) = store.insert(scenario(2), &seq());
        assert!(ev.is_empty(), "freed slot means no eviction");
        let (_, ev) = store.insert(scenario(3), &seq());
        assert_eq!(ev, vec![b]);
        assert_eq!(store.remove(b), Removal::Evicted, "evicted ids answer Gone");
        assert!(matches!(store.get(b), SessionLookup::Evicted));
        assert!(matches!(store.get(999), SessionLookup::Missing));
    }

    #[test]
    fn forest_cache_hits_for_permuted_selections() {
        let store = SessionStore::with_shards(4, 2);
        let (id, _) = store.insert(scenario(5), &seq());
        let session = store.get(id).session().unwrap();
        let tuples: Vec<TupleId> = session.scenario.target.all_rows().collect();
        let workers = Pool::sequential();
        let (_, cached, wall) = session.forest_for(&tuples, &workers);
        assert!(!cached, "first computation misses");
        assert!(wall > Duration::ZERO, "misses report construction time");
        let mut reversed = tuples.clone();
        reversed.reverse();
        let (_, cached, wall) = session.forest_for(&reversed, &workers);
        assert!(cached, "same set in another order hits");
        assert_eq!(wall, Duration::ZERO, "hits cost nothing");
        assert_eq!(session.cached_forests(), 1);
    }

    #[test]
    fn capacity_slices_cover_the_bound_exactly() {
        for (max, shards) in [(16, 8), (16, 1), (7, 3), (5, 8), (1, 4)] {
            let store = SessionStore::with_shards(max, shards);
            let total: usize = store.shards.iter().map(|s| s.capacity).sum();
            assert_eq!(total, max, "max={max} shards={shards}");
            assert!(store.shards.iter().all(|s| s.capacity >= 1));
            assert!(store.shard_count() <= max, "no zero-capacity shards");
        }
    }

    #[test]
    fn sharded_store_keeps_every_shard_within_its_slice() {
        let store = SessionStore::with_shards(8, 4);
        let mut all_evicted = Vec::new();
        for tag in 0..24 {
            let (_, ev) = store.insert(scenario(tag), &seq());
            all_evicted.extend(ev);
        }
        assert_eq!(store.len(), 8, "saturated store holds exactly its capacity");
        for shard in &store.shards {
            assert!(shard.occupancy.load(Relaxed) <= shard.capacity);
        }
        let snap = store.snapshot();
        assert_eq!(snap.evictions(), all_evicted.len() as u64);
        assert_eq!(snap.inserts(), 24);
        assert_eq!(snap.evictions(), 24 - 8);
        for id in all_evicted {
            assert!(
                matches!(store.get(id), SessionLookup::Evicted),
                "evicted id {id} answers Evicted"
            );
        }
    }

    #[test]
    fn protected_sessions_outlive_probation_under_pressure() {
        // One shard, capacity 4: touch two early sessions, then churn; the
        // touched (protected) pair must outlive untouched probation peers.
        let store = SessionStore::with_shards(4, 1);
        let (a, _) = store.insert(scenario(1), &seq());
        let (b, _) = store.insert(scenario(2), &seq());
        let (c, _) = store.insert(scenario(3), &seq());
        let (d, _) = store.insert(scenario(4), &seq());
        assert!(store.get(a).is_found());
        assert!(store.get(b).is_found());
        let (_, ev1) = store.insert(scenario(5), &seq());
        let (_, ev2) = store.insert(scenario(6), &seq());
        let evicted: Vec<u64> = ev1.into_iter().chain(ev2).collect();
        assert_eq!(evicted, vec![c, d], "probation evicts before protected");
        assert!(store.get(a).is_found());
        assert!(store.get(b).is_found());
    }

    #[test]
    fn touch_takes_no_write_lock_and_scans_nothing() {
        // The satellite-4 regression: the old store's get did an O(n)
        // LRU-vector retain under the write lock; the new touch path is a
        // read lock plus two atomics. Pin it with the operation counters,
        // at two store sizes and two shard counts.
        for shards in [1usize, 4] {
            for size in [4usize, 64] {
                let store = SessionStore::with_shards(64, shards);
                let ids: Vec<u64> = (0..size)
                    .map(|k| store.insert(scenario(k as i64), &seq()).0)
                    .collect();
                let before = store.snapshot();
                for _ in 0..50 {
                    for &id in &ids {
                        assert!(store.get(id).is_found());
                    }
                }
                let after = store.snapshot();
                assert_eq!(
                    after.write_locks(),
                    before.write_locks(),
                    "gets take no write lock (shards={shards} size={size})"
                );
                assert_eq!(
                    after.evict_scan_steps(),
                    before.evict_scan_steps(),
                    "gets scan nothing (shards={shards} size={size})"
                );
                assert_eq!(after.hits() - before.hits(), 50 * size as u64);
            }
        }
    }

    #[test]
    fn shard_count_comes_from_env_or_parallelism() {
        // Read the ambient override the CI matrix sets (the suite must not
        // mutate process-global env itself — other tests run in parallel).
        let expected = std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        let store = SessionStore::new(64);
        assert_eq!(store.shard_count(), expected.clamp(1, 64));
    }

    // ------------------------------------------------------------------
    // Hand-rolled interleaving ("loom-style") schedules for the touch
    // path. The workspace is hermetic, so instead of loom we enumerate
    // every merge order of two short step sequences and run each schedule
    // on fresh state, asserting the same invariants loom would check.
    // ------------------------------------------------------------------

    /// Every interleaving of `a` steps by thread A and `b` steps by
    /// thread B, as vectors of `true` (= run A's next step) / `false`.
    fn interleavings(a: usize, b: usize) -> Vec<Vec<bool>> {
        if a == 0 {
            return vec![vec![false; b]];
        }
        if b == 0 {
            return vec![vec![true; a]];
        }
        let mut out = Vec::new();
        for mut tail in interleavings(a - 1, b) {
            tail.insert(0, true);
            out.push(tail);
        }
        for mut tail in interleavings(a, b - 1) {
            tail.insert(0, false);
            out.push(tail);
        }
        out
    }

    #[test]
    fn promotion_is_idempotent_under_every_two_thread_schedule() {
        // Two touchers race on one entry. Steps per toucher: draw a stamp,
        // record it, promote. All 20 interleavings must end protected with
        // the *newest* stamp (record_stamp is fetch_max, not store).
        for schedule in interleavings(3, 3) {
            let store = SessionStore::with_shards(2, 1);
            let (id, _) = store.insert(scenario(1), &seq());
            let shard = &store.shards[store.shard_of(id)];
            let entry = Arc::clone(shard.inner.read().unwrap().sessions.get(&id).unwrap());
            let clock_before = shard.clock.load(Relaxed);

            let (mut a_step, mut b_step) = (0usize, 0usize);
            let (mut a_stamp, mut b_stamp) = (0u64, 0u64);
            for &run_a in &schedule {
                let (step, stamp) = if run_a {
                    (&mut a_step, &mut a_stamp)
                } else {
                    (&mut b_step, &mut b_stamp)
                };
                match *step {
                    0 => *stamp = Entry::next_stamp(&shard.clock),
                    1 => entry.record_stamp(*stamp),
                    2 => entry.promote(),
                    _ => unreachable!(),
                }
                *step += 1;
            }
            assert!(entry.protected.load(Relaxed), "promotion happened");
            assert_eq!(
                entry.touch.load(Relaxed),
                clock_before + 2,
                "racing touches keep the newest of the two issued stamps \
                 (schedule {schedule:?})"
            );
        }
    }

    #[test]
    fn touch_racing_eviction_never_resurrects_the_victim() {
        // Thread A runs the two halves of a lookup (clone the entry under
        // the read lock; touch after dropping it). Thread B inserts into a
        // full shard, evicting the LRU victim. Whatever the interleaving,
        // a touch that lands on an already-evicted entry must be inert:
        // the id stays gone, the store stays within capacity, and the
        // victim is schedule-determined.
        //
        // Setup: one shard, capacity 2, holding x (older) and w (newer).
        let schedules = interleavings(2, 1);
        assert_eq!(schedules.len(), 3);
        // Victim per schedule: if x's touch completes before the insert's
        // eviction scan, x is protected with the newest stamp, so w is
        // evicted; otherwise x is the oldest probation entry and dies.
        for schedule in schedules {
            let store = SessionStore::with_shards(2, 1);
            let (x, _) = store.insert(scenario(1), &seq());
            let (w, _) = store.insert(scenario(2), &seq());
            let shard = &store.shards[store.shard_of(x)];

            let mut a_step = 0usize;
            let mut held: Option<Arc<Entry>> = None;
            let mut evicted: Vec<u64> = Vec::new();
            for &run_a in &schedule {
                if run_a {
                    match a_step {
                        // Lookup half 1: clone under the read lock.
                        0 => held = shard.inner.read().unwrap().sessions.get(&x).cloned(),
                        // Lookup half 2: touch outside the lock.
                        1 => {
                            if let Some(e) = &held {
                                e.touch(&shard.clock);
                            }
                        }
                        _ => unreachable!(),
                    }
                    a_step += 1;
                } else {
                    let (_, ev) = store.insert(scenario(3), &seq());
                    evicted = ev;
                }
            }
            let touched_first = schedule.iter().take(2).all(|&s| s);
            let expected_victim = if touched_first { w } else { x };
            assert_eq!(evicted, vec![expected_victim], "schedule {schedule:?}");
            assert_eq!(store.len(), 2, "capacity holds");
            assert!(
                matches!(store.get(expected_victim), SessionLookup::Evicted),
                "victim stays gone after a late touch (schedule {schedule:?})"
            );
            // A later insert evicts a *resident* session — the stale
            // entry the toucher still holds can never re-enter the scan.
            let (_, ev) = store.insert(scenario(4), &seq());
            assert_eq!(ev.len(), 1);
            assert_ne!(ev[0], expected_victim, "no resurrection");
        }
    }

    #[test]
    fn touch_racing_remove_leaves_the_id_deleted() {
        // Same two lookup halves racing a DELETE: all three interleavings
        // end with the id Missing (deleted, not evicted) and the detached
        // touch inert.
        for schedule in interleavings(2, 1) {
            let store = SessionStore::with_shards(2, 1);
            let (x, _) = store.insert(scenario(1), &seq());
            let (w, _) = store.insert(scenario(2), &seq());
            let shard = &store.shards[store.shard_of(x)];

            let mut a_step = 0usize;
            let mut held: Option<Arc<Entry>> = None;
            for &run_a in &schedule {
                if run_a {
                    match a_step {
                        0 => held = shard.inner.read().unwrap().sessions.get(&x).cloned(),
                        1 => {
                            if let Some(e) = &held {
                                e.touch(&shard.clock);
                            }
                        }
                        _ => unreachable!(),
                    }
                    a_step += 1;
                } else {
                    assert_eq!(store.remove(x), Removal::Removed);
                }
            }
            assert!(matches!(store.get(x), SessionLookup::Missing));
            assert!(store.get(w).is_found(), "the bystander survives");
            assert_eq!(store.len(), 1);
        }
    }
}
