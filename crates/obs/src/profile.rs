//! A sampling wall-clock self-profiler over the span stack.
//!
//! The tracer already names every interesting interval with a [`span`]
//! guard; this module maintains, per thread, the stack of *currently
//! open* span names and lets a ticker thread snapshot every stack into
//! flamegraph-collapsed counts (`request;chase;chase_round 123`). No
//! signal handling is involved: workers push and pop plain `&'static
//! str` frames under their own tiny mutex, and the sampler reads those
//! stacks from outside — a cooperative design that is safe in std-only
//! Rust and costs nothing when disabled.
//!
//! ## Overhead discipline
//!
//! The global enabled flag ([`profiler_enabled`]) gates every hook: disabled (the default),
//! [`push_frame`] is one relaxed atomic load and nothing else — no clock
//! read, no allocation, no lock. Enabled, a push/pop is one thread-local
//! access plus one uncontended mutex lock on the thread's own stack;
//! contention only happens for the microseconds the sampler spends
//! copying a stack. The `micro prof` bench holds sampler-on overhead to
//! the same ≤5% bar as the rest of the observability layer.
//!
//! ## Sampling model
//!
//! Every tick ([`Sampler`] at `ROUTES_PROFILE_HZ`), each thread with a
//! non-empty stack contributes one count to the collapsed key joining
//! its frames with `;`. Counts are therefore *weights in ticks*: a frame
//! seen in 40 of 100 ticks spent ~40% of the wall clock on that path.
//! Stacks are cumulative since process start; a scraper that wants rates
//! asks for the delta since the previous delta scrape.
//!
//! [`span`]: crate::trace::span

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Environment variable setting the sampler frequency in Hz; `0` (the
/// default) leaves the profiler off entirely.
pub const PROFILE_HZ_ENV: &str = "ROUTES_PROFILE_HZ";

/// Upper clamp on the sampler frequency: past this the sampler spends
/// more time locking stacks than the stacks spend changing.
pub const MAX_PROFILE_HZ: u32 = 1000;

/// The sampler frequency from the environment: `ROUTES_PROFILE_HZ`
/// parsed as Hz, clamped to [`MAX_PROFILE_HZ`], defaulting to 0 (off).
pub fn profile_hz_from_env() -> u32 {
    crate::env_number(PROFILE_HZ_ENV).map_or(0, |hz: u32| hz.min(MAX_PROFILE_HZ))
}

/// Whether frame hooks are live. Off ⇒ [`push_frame`] is a single
/// relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The frequency of the running sampler (0 when none), for scrapes.
static HZ: AtomicU32 = AtomicU32::new(0);

/// Sampler iterations taken since process start (monotone; survives
/// sampler restarts so delta scrapes stay correct).
static TICKS: AtomicU64 = AtomicU64::new(0);

/// One thread's stack of currently-open span names.
struct ThreadFrames {
    stack: Mutex<Vec<&'static str>>,
}

/// Every live thread that ever pushed a frame. Entries are weak: a
/// finished worker thread drops its `Arc` and the sampler prunes the
/// dangling entry on its next pass.
static REGISTRY: Mutex<Vec<Weak<ThreadFrames>>> = Mutex::new(Vec::new());

thread_local! {
    static FRAMES: RefCell<Option<Arc<ThreadFrames>>> = const { RefCell::new(None) };
}

/// Cumulative collapsed-stack counts plus the high-water mark of the
/// last delta scrape.
#[derive(Default)]
struct SampleCounts {
    cumulative: HashMap<String, u64>,
    last_scrape: HashMap<String, u64>,
    last_ticks: u64,
}

fn counts() -> &'static Mutex<SampleCounts> {
    static COUNTS: OnceLock<Mutex<SampleCounts>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(SampleCounts::default()))
}

/// Whether the profiler hooks are currently live.
pub fn profiler_enabled() -> bool {
    ENABLED.load(Relaxed)
}

fn with_thread_frames<R>(f: impl FnOnce(&Arc<ThreadFrames>) -> R) -> R {
    FRAMES.with(|cell| {
        let mut slot = cell.borrow_mut();
        let frames = slot.get_or_insert_with(|| {
            let frames = Arc::new(ThreadFrames {
                stack: Mutex::new(Vec::with_capacity(8)),
            });
            REGISTRY
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::downgrade(&frames));
            frames
        });
        f(frames)
    })
}

/// Push an open-span frame onto this thread's stack. Returns whether a
/// frame was pushed — the caller must pop iff it pushed, so a profiler
/// enabled mid-span can never pop someone else's frame.
pub fn push_frame(name: &'static str) -> bool {
    if !ENABLED.load(Relaxed) {
        return false;
    }
    with_thread_frames(|frames| {
        frames
            .stack
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(name);
    });
    true
}

/// Pop the frame a matching [`push_frame`] pushed.
pub fn pop_frame() {
    FRAMES.with(|cell| {
        if let Some(frames) = cell.borrow().as_ref() {
            frames.stack.lock().unwrap_or_else(|e| e.into_inner()).pop();
        }
    });
}

/// Snapshot this thread's open frames so a pool worker can adopt them
/// as its stack prefix; `None` when the profiler is off or the stack is
/// empty (adoption is then free).
pub fn snapshot_frames() -> Option<Vec<&'static str>> {
    if !ENABLED.load(Relaxed) {
        return None;
    }
    FRAMES.with(|cell| {
        let borrowed = cell.borrow();
        let frames = borrowed.as_ref()?;
        let stack = frames.stack.lock().unwrap_or_else(|e| e.into_inner());
        if stack.is_empty() {
            None
        } else {
            Some(stack.clone())
        }
    })
}

/// A worker-side guard holding an adopted stack prefix (see
/// [`snapshot_frames`]); pops exactly what it pushed on drop.
pub struct AdoptedFrames {
    pushed: usize,
}

/// Adopt a parent thread's frames as this thread's stack prefix, so
/// samples taken on pool workers attribute to the request path that
/// spawned them (`request;chase;…` rather than a rootless `chase`).
pub fn adopt_frames(frames: Option<Vec<&'static str>>) -> AdoptedFrames {
    let Some(frames) = frames else {
        return AdoptedFrames { pushed: 0 };
    };
    if !ENABLED.load(Relaxed) {
        return AdoptedFrames { pushed: 0 };
    }
    let pushed = frames.len();
    with_thread_frames(|thread| {
        thread
            .stack
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(frames);
    });
    AdoptedFrames { pushed }
}

impl Drop for AdoptedFrames {
    fn drop(&mut self) {
        if self.pushed == 0 {
            return;
        }
        FRAMES.with(|cell| {
            if let Some(frames) = cell.borrow().as_ref() {
                let mut stack = frames.stack.lock().unwrap_or_else(|e| e.into_inner());
                let keep = stack.len().saturating_sub(self.pushed);
                stack.truncate(keep);
            }
        });
    }
}

/// Take one sample: every thread with a non-empty stack contributes one
/// count to its collapsed key. Public so tests (and the bench harness)
/// can sample deterministically without a ticker thread.
pub fn sample_once() {
    let mut keys: Vec<String> = Vec::new();
    {
        let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        registry.retain(|weak| {
            let Some(frames) = weak.upgrade() else {
                return false; // thread exited; prune
            };
            let stack = frames.stack.lock().unwrap_or_else(|e| e.into_inner());
            if !stack.is_empty() {
                keys.push(stack.join(";"));
            }
            true
        });
    }
    let mut counts = counts().lock().unwrap_or_else(|e| e.into_inner());
    for key in keys {
        *counts.cumulative.entry(key).or_insert(0) += 1;
    }
    drop(counts);
    TICKS.fetch_add(1, Relaxed);
}

/// A scrape of the profiler: collapsed stacks sorted by key, sampler
/// state, and the tick count the stacks cover.
pub struct ProfileSnapshot {
    pub enabled: bool,
    /// The running sampler's frequency (0 when sampling is manual/off).
    pub hz: u32,
    /// Sampler iterations covered by `stacks` (delta scrapes cover only
    /// the ticks since the previous delta scrape).
    pub ticks: u64,
    /// `(collapsed_key, samples)` sorted by key — deterministic output
    /// for goldens and diffing.
    pub stacks: Vec<(String, u64)>,
}

impl ProfileSnapshot {
    /// The flamegraph-collapsed text form: one `a;b;c 123` line per
    /// stack (feed straight into `flamegraph.pl`).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (key, count) in &self.stacks {
            out.push_str(key);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Total samples across all stacks.
    pub fn total_samples(&self) -> u64 {
        self.stacks.iter().map(|(_, n)| n).sum()
    }
}

/// Scrape the collapsed-stack counts. `delta` subtracts (and then
/// advances) the previous delta scrape's counts, so two consecutive
/// delta scrapes partition time; a plain scrape is cumulative since
/// process start and moves no state.
pub fn collect(delta: bool) -> ProfileSnapshot {
    let ticks_now = TICKS.load(Relaxed);
    let mut counts = counts().lock().unwrap_or_else(|e| e.into_inner());
    let mut stacks: Vec<(String, u64)> = if delta {
        let out = counts
            .cumulative
            .iter()
            .filter_map(|(key, &n)| {
                let prev = counts.last_scrape.get(key).copied().unwrap_or(0);
                (n > prev).then(|| (key.clone(), n - prev))
            })
            .collect();
        counts.last_scrape = counts.cumulative.clone();
        out
    } else {
        counts
            .cumulative
            .iter()
            .map(|(key, &n)| (key.clone(), n))
            .collect()
    };
    let ticks = if delta {
        let covered = ticks_now.saturating_sub(counts.last_ticks);
        counts.last_ticks = ticks_now;
        covered
    } else {
        ticks_now
    };
    drop(counts);
    stacks.sort();
    ProfileSnapshot {
        enabled: ENABLED.load(Relaxed),
        hz: HZ.load(Relaxed),
        ticks,
        stacks,
    }
}

/// Clear accumulated samples and delta state (bench/test isolation).
pub fn reset_samples() {
    let mut counts = counts().lock().unwrap_or_else(|e| e.into_inner());
    counts.cumulative.clear();
    counts.last_scrape.clear();
    counts.last_ticks = TICKS.load(Relaxed);
}

/// A running ticker thread sampling every live stack at a fixed
/// frequency. Dropping (or [`Sampler::stop`]) disables the hooks and
/// joins the thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Start sampling at `hz` (clamped to 1..=[`MAX_PROFILE_HZ`]); `None`
/// when `hz` is 0 — the caller treats "no sampler" and "profiler off"
/// identically. Enables the frame hooks as a side effect.
pub fn start_sampler(hz: u32) -> Option<Sampler> {
    if hz == 0 {
        return None;
    }
    let hz = hz.min(MAX_PROFILE_HZ);
    ENABLED.store(true, Relaxed);
    HZ.store(hz, Relaxed);
    let stop = Arc::new(AtomicBool::new(false));
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("spiderd-profiler".to_owned())
            .spawn(move || {
                while !stop.load(Relaxed) {
                    std::thread::sleep(period);
                    if stop.load(Relaxed) {
                        break;
                    }
                    sample_once();
                }
            })
            .ok()?
    };
    Some(Sampler {
        stop,
        handle: Some(handle),
    })
}

impl Sampler {
    /// Disable the hooks and join the ticker.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        ENABLED.store(false, Relaxed);
        HZ.store(0, Relaxed);
        self.stop.store(true, Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Enable the frame hooks without a ticker (tests drive [`sample_once`]
/// by hand). Returns a guard restoring the previous state on drop.
pub struct ManualProfile {
    was_enabled: bool,
}

pub fn manual_profile() -> ManualProfile {
    let was_enabled = ENABLED.swap(true, Relaxed);
    ManualProfile { was_enabled }
}

impl Drop for ManualProfile {
    fn drop(&mut self) {
        ENABLED.store(self.was_enabled, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{scoped, span, Tracer};
    use std::sync::Arc as StdArc;

    // The profiler state is process-global, so the tests here run under
    // one mutex to avoid cross-talk (cargo runs tests in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_profiler_pushes_nothing() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!profiler_enabled());
        assert!(!push_frame("chase"));
        let _opened_while_off = span("request");
        let _on = manual_profile();
        assert!(
            snapshot_frames().is_none(),
            "a span opened while the profiler was off holds no frame"
        );
    }

    #[test]
    fn manual_sampling_collapses_open_spans() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _on = manual_profile();
        reset_samples();
        let tracer = StdArc::new(Tracer::new(16, 0));
        let ctx = tracer.begin(Some("prof-test"));
        let _scope = scoped(Some(ctx));
        {
            let _root = span("request");
            let _chase = span("chase");
            sample_once();
            sample_once();
            {
                let _round = span("chase_round");
                sample_once();
            }
        }
        sample_once(); // stack is empty again: contributes nothing
        let snap = collect(false);
        assert!(snap.enabled);
        let stacks: HashMap<&str, u64> =
            snap.stacks.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        assert_eq!(stacks.get("request;chase"), Some(&2));
        assert_eq!(stacks.get("request;chase;chase_round"), Some(&1));
        assert_eq!(snap.total_samples(), 3);
        let collapsed = snap.collapsed();
        assert!(collapsed.contains("request;chase 2\n"));
        assert!(collapsed.contains("request;chase;chase_round 1\n"));
    }

    #[test]
    fn delta_scrapes_partition_time() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _on = manual_profile();
        reset_samples();
        {
            let _root = span("request");
            sample_once();
            let first = collect(true);
            assert_eq!(first.total_samples(), 1);
            sample_once();
            sample_once();
            let second = collect(true);
            assert_eq!(second.total_samples(), 2, "only the new ticks");
            assert_eq!(second.ticks, 2);
            let third = collect(true);
            assert_eq!(third.total_samples(), 0, "nothing since last scrape");
        }
    }

    #[test]
    fn adopted_frames_prefix_worker_stacks() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _on = manual_profile();
        reset_samples();
        let _root = span("request");
        let _chase = span("chase");
        let snapshot = snapshot_frames();
        assert_eq!(snapshot.as_deref(), Some(&["request", "chase"][..]));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _adopt = adopt_frames(snapshot.clone());
                let _leaf = span("chase_round");
                sample_once();
            })
            .join()
            .unwrap();
        });
        let snap = collect(false);
        let worker = snap
            .stacks
            .iter()
            .find(|(k, _)| k == "request;chase;chase_round");
        assert!(worker.is_some(), "worker stack carries the parent prefix");
    }

    #[test]
    fn sampler_ticks_and_stops() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_samples();
        let sampler = start_sampler(500).expect("sampler starts");
        assert!(profiler_enabled());
        let _root = span("request");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while collect(false).total_samples() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert!(!profiler_enabled());
        let snap = collect(false);
        assert!(snap.total_samples() > 0, "the ticker sampled the stack");
        assert!(snap.stacks.iter().any(|(k, _)| k == "request"));
        reset_samples();
    }

    #[test]
    fn zero_hz_means_no_sampler() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(start_sampler(0).is_none());
        std::env::remove_var(PROFILE_HZ_ENV);
        assert_eq!(profile_hz_from_env(), 0);
    }
}
