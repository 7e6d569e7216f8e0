//! Incremental-edit micro-benchmark: `routes_incr::apply_batch` (memoized
//! delta-chase) against a full re-load + re-chase of the edited text.
//!
//! Run via the `repro` binary: `repro micro edit [--quick]` prints the
//! table and writes `bench_results/micro_edit.csv` with columns
//! `sources, degree, batches, ops, trials, incremental_seconds,
//! incremental_min, incremental_max, full_seconds, full_min, full_max,
//! speedup` (each `_seconds` a median over `trials` timed runs).
//!
//! Both paths replay the *same* pinned campaign
//! ([`routes_gen::sized_edit_campaign`]) batch by batch, and both end at
//! the identical solution (the differential tests pin that equality); the
//! sweep measures only wall time. The incremental path's saving is match
//! *enumeration*: it joins only the delta rows against each tgd's memoized
//! match set, while the full path re-enumerates every premise join from
//! scratch — so the gap widens with instance size while the per-batch edit
//! stays small (the small-delta regime a live debugging session lives in).

use std::time::Duration;

use routes_chase::ChaseOptions;
use routes_cli::{load_scenario_str, prepare_scenario_with, PreparedScenario};
use routes_gen::sized_edit_campaign;
use routes_incr::{apply_batch, apply_edits, IncrState};
use routes_pool::Pool;
use routes_store::EditOp;

use crate::{bench_spread, secs, Table};

/// Instance sizes swept (source nodes; each has `DEGREE` out-edges).
pub const EDIT_SIZES: [usize; 3] = [256, 1024, 4096];
const EDIT_SIZES_QUICK: [usize; 1] = [96];

/// Out-degree of the campaign's `S` graph: dense enough that the `tri`
/// self-join dominates full re-enumeration.
const DEGREE: usize = 16;

fn prepare(text: &str, workers: &Pool) -> PreparedScenario {
    let loaded = load_scenario_str(text).expect("campaign scenario loads");
    prepare_scenario_with(loaded, ChaseOptions::fresh(), workers).expect("campaign chases")
}

/// Replay every batch through the incremental path, threading text,
/// prepared scenario, and memo state; returns total wall time.
fn run_incremental(base: &str, batches: &[Vec<EditOp>], workers: &Pool) -> Duration {
    let mut text = base.to_owned();
    let mut scenario = prepare(base, workers);
    let mut state = IncrState::default();
    let started = std::time::Instant::now();
    for ops in batches {
        let apply = apply_batch(
            &text,
            &scenario,
            &state,
            ops,
            ChaseOptions::fresh(),
            workers,
        )
        .expect("campaign batches are valid");
        text = apply.text;
        scenario = apply.scenario;
        state = apply.state;
    }
    started.elapsed()
}

/// Replay every batch as a from-scratch re-load + re-chase of the edited
/// text (what a server without the incremental path would do).
fn run_full(base: &str, batches: &[Vec<EditOp>], workers: &Pool) -> Duration {
    let mut text = base.to_owned();
    let started = std::time::Instant::now();
    for ops in batches {
        let (next, loaded) = apply_edits(&text, ops).expect("campaign batches are valid");
        let _ =
            prepare_scenario_with(loaded, ChaseOptions::fresh(), workers).expect("campaign chases");
        text = next;
    }
    started.elapsed()
}

/// Run the size sweep. `quick` shrinks sizes and samples for CI smoke.
pub fn edit_benches(quick: bool) -> Table {
    let sizes: &[usize] = if quick {
        &EDIT_SIZES_QUICK
    } else {
        &EDIT_SIZES
    };
    let (warmup, samples) = if quick { (0, 1) } else { (1, 5) };
    let (n_batches, ops_per_batch) = (4, 4);
    let workers = Pool::sequential();
    let mut out = Table::new(
        "micro_edit",
        &[
            "sources",
            "degree",
            "batches",
            "ops",
            "trials",
            "incremental_seconds",
            "incremental_min",
            "incremental_max",
            "full_seconds",
            "full_min",
            "full_max",
            "speedup",
        ],
    );
    // The runners time the replay loop themselves (excluding the base
    // prepare both paths share), so their reported durations are the runs.
    for &n in sizes {
        let campaign = sized_edit_campaign(0xED17, n, DEGREE, n_batches, ops_per_batch);
        let inc = bench_spread(warmup, samples, || {
            run_incremental(&campaign.scenario, &campaign.batches, &workers)
        });
        let ful = bench_spread(warmup, samples, || {
            run_full(&campaign.scenario, &campaign.batches, &workers)
        });
        let speedup = if inc[1].as_secs_f64() > 0.0 {
            ful[1].as_secs_f64() / inc[1].as_secs_f64()
        } else {
            f64::INFINITY
        };
        let mut row = vec![
            n.to_string(),
            DEGREE.to_string(),
            n_batches.to_string(),
            campaign.total_ops().to_string(),
            samples.to_string(),
        ];
        for [min, median, max] in [inc, ful] {
            row.extend([secs(median), secs(min), secs(max)]);
        }
        row.push(format!("{speedup:.2}"));
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_rows() {
        let table = edit_benches(true);
        assert_eq!(table.rows.len(), EDIT_SIZES_QUICK.len());
        for row in &table.rows {
            assert_eq!(row.len(), 12);
            assert!(row[5].parse::<f64>().unwrap() >= 0.0);
            assert!(row[8].parse::<f64>().unwrap() >= 0.0);
        }
    }
}
