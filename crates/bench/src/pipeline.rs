//! Pipeline micro-benchmark: stitched-route latency per hop count and the
//! core-minimization shrink ratio.
//!
//! Run via the `repro` binary: `repro micro pipeline [--quick]` prints the
//! table and writes `bench_results/micro_pipeline.csv` with columns
//! `hops, rows, core, trials, chase_seconds, chase_min, chase_max,
//! tuples_before, tuples_after, shrink, probes, stitch_seconds, stitch_min,
//! stitch_max, per_route_ms` (each `_seconds` a median over `trials` timed
//! runs, `per_route_ms` from the stitch median).
//!
//! The sweep chases the same redundancy-heavy generated chain
//! ([`routes_gen::pipeline_scenario`]) at increasing hop counts, with core
//! minimization off and on, then stitches end-to-end routes for a pinned
//! probe set of final-instance tuples. Stitching cost grows with hop count
//! (one one-route computation plus a fact translation per hop), so
//! `per_route_ms` against `hops` is the latency curve; `shrink` is
//! `tuples_after / tuples_before` summed over every intermediate instance,
//! the space the core saves a long-running debugging session.

use routes_chase::ChaseOptions;
use routes_gen::pipeline_scenario;
use routes_model::TupleId;
use routes_pipeline::{chase_pipeline, stitch_route, PreparedPipeline};
use routes_pool::Pool;

use crate::{bench_timed, secs, Table};

/// Hop counts swept.
pub const PIPELINE_HOPS: [usize; 4] = [1, 2, 4, 8];
const PIPELINE_HOPS_QUICK: [usize; 2] = [1, 2];

const SEED: u64 = 0xF1BE;

fn chase(hops: usize, rows: usize, core: bool, workers: &Pool) -> PreparedPipeline {
    let sc = pipeline_scenario(hops, rows, SEED, true, core);
    chase_pipeline(
        sc.pipeline,
        sc.source,
        sc.pool,
        ChaseOptions::fresh(),
        workers,
    )
    .expect("generated pipelines chase")
}

/// Run the hop-count sweep. `quick` shrinks sizes and samples for CI smoke.
pub fn pipeline_benches(quick: bool) -> Table {
    let hop_counts: &[usize] = if quick {
        &PIPELINE_HOPS_QUICK
    } else {
        &PIPELINE_HOPS
    };
    let rows = if quick { 32 } else { 384 };
    let n_probes = if quick { 8 } else { 32 };
    let (warmup, samples) = if quick { (0, 1) } else { (1, 5) };
    let workers = Pool::sequential();
    let mut out = Table::new(
        "micro_pipeline",
        &[
            "hops",
            "rows",
            "core",
            "trials",
            "chase_seconds",
            "chase_min",
            "chase_max",
            "tuples_before",
            "tuples_after",
            "shrink",
            "probes",
            "stitch_seconds",
            "stitch_min",
            "stitch_max",
            "per_route_ms",
        ],
    );
    for &hops in hop_counts {
        for core in [false, true] {
            let [chase_min, chase_median, chase_max] =
                bench_timed(warmup, samples, || chase(hops, rows, core, &workers));
            let prepared = chase(hops, rows, core, &workers);
            let (before, after) = prepared.core_shrink();
            let probes: Vec<TupleId> = prepared
                .final_stage()
                .target
                .all_rows()
                .take(n_probes)
                .collect();
            let [stitch_min, stitch_median, stitch_max] = bench_timed(warmup, samples, || {
                for &t in &probes {
                    let stitched = stitch_route(&prepared, &[t]).expect("probe has a route");
                    std::hint::black_box(stitched);
                }
            });
            let per_route_ms = stitch_median.as_secs_f64() * 1_000.0 / probes.len() as f64;
            out.push(vec![
                hops.to_string(),
                rows.to_string(),
                core.to_string(),
                samples.to_string(),
                secs(chase_median),
                secs(chase_min),
                secs(chase_max),
                before.to_string(),
                after.to_string(),
                format!("{:.4}", after as f64 / before as f64),
                probes.len().to_string(),
                secs(stitch_median),
                secs(stitch_min),
                secs(stitch_max),
                format!("{per_route_ms:.4}"),
            ]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_rows() {
        let table = pipeline_benches(true);
        assert_eq!(table.rows.len(), PIPELINE_HOPS_QUICK.len() * 2);
        for row in &table.rows {
            assert_eq!(row.len(), 15);
            let [min, median, max] = [5, 4, 6].map(|col| row[col].parse::<f64>().unwrap());
            assert!(min <= median && median <= max);
            let shrink: f64 = row[9].parse().unwrap();
            assert!(shrink > 0.0 && shrink <= 1.0);
            if row[2] == "true" {
                assert!(shrink < 1.0, "core rows must actually shrink");
            } else {
                assert_eq!(shrink, 1.0, "core off leaves instances untouched");
            }
        }
    }
}
