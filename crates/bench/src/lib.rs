//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§4): Figures 10(a)–(d), the flat-hierarchy experiments, the
//! deep-hierarchy Figure 11, and Table 1 with its §4.2 timings.
//!
//! ## Size labels
//!
//! The paper's relational instances are 10/50/100/500 MB under DB2 2006 —
//! TPC-H scale factors ≈ 0.01/0.05/0.1/0.5. Absolute sizes are not the
//! point (our substrate is an in-memory Rust store, not DB2); the *ratios*
//! are. [`Sizing`] maps the paper's labels to scale factors multiplied by a
//! configurable `factor` (default 0.1) so a full reproduction run finishes
//! in minutes while preserving the 1 : 5 : 10 : 50 sweep.
//!
//! ## Measurement protocol
//!
//! As in the paper: each point is run three times and the reported number
//! averages the second and third runs (the first warms the lazily built
//! column indexes, as the paper's first run warmed the DB2 buffer pool).

pub mod edit;
pub mod experiments;
pub mod http;
pub mod join;
pub mod micro;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod prof;
pub mod sessions;
pub mod table;

pub use edit::edit_benches;
pub use experiments::{fig10a, fig10b, fig10c, fig10d, fig11, flat_hierarchy, table1, Sizing};
pub use http::http_benches;
pub use join::join_benches;
pub use micro::micro_benches;
pub use obs::obs_benches;
pub use parallel::{parallel_benches, thread_counts};
pub use persist::persist_benches;
pub use pipeline::pipeline_benches;
pub use prof::prof_benches;
pub use sessions::session_benches;
pub use table::Table;

use std::time::{Duration, Instant};

/// Run `f` three times; report the average of runs two and three.
pub fn measure<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut result = None;
    let mut durations = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        let r = f();
        durations.push(start.elapsed());
        result = Some(r);
    }
    let avg = (durations[1] + durations[2]) / 2;
    (avg, result.expect("f ran"))
}

/// Format a duration in seconds with microsecond precision (the paper's
/// plots are in seconds; sub-millisecond rows need the extra digits).
pub fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Median-of-N timing with warmup, the std replacement for the retired
/// criterion harness: run `f` `warmup` times untimed (populating lazy
/// column indexes and the allocator), then time `samples` runs and report
/// the median. The median is robust against one-off scheduler noise, which
/// is the property criterion's point estimate gave us.
pub fn bench_median<R>(warmup: usize, samples: usize, f: impl FnMut() -> R) -> Duration {
    bench_timed(warmup, samples, f)[1]
}

/// [`bench_spread`] for an `f` that does not time itself: each run of `f`
/// is timed whole, as `[min, median, max]`.
pub fn bench_timed<R>(warmup: usize, samples: usize, mut f: impl FnMut() -> R) -> [Duration; 3] {
    bench_spread(warmup, samples, || {
        let start = Instant::now();
        let _ = f();
        start.elapsed()
    })
}

/// The runs behind [`bench_median`], for an `f` that times itself:
/// `warmup` untimed runs, then `samples` timed ones, reported as
/// `[min, median, max]`.
pub fn bench_spread(
    warmup: usize,
    samples: usize,
    mut f: impl FnMut() -> Duration,
) -> [Duration; 3] {
    assert!(samples > 0, "need at least one timed sample");
    for _ in 0..warmup {
        let _ = f();
    }
    let mut times: Vec<Duration> = (0..samples).map(|_| f()).collect();
    times.sort_unstable();
    [times[0], times[times.len() / 2], times[times.len() - 1]]
}
