//! Vectorized-join micro-benchmark: the batch executor against the
//! row-at-a-time `MatchIter` on full-enumeration workloads.
//!
//! Run via the `repro` binary: `repro micro join [--quick]` prints the
//! table and writes `bench_results/micro_join.csv` with columns
//! `generator, scenario, tgds, matches, trials`, then a median, min and max
//! over `trials` timed runs for each of `row`, `batch1`, `batch64` and
//! `batch1024` (`row_seconds, row_min, row_max, batch1_seconds, ...`), and
//! `speedup_batch64`.
//!
//! The workload is the one the chase saturation loop and
//! `ComputeAllRoutes` both live in: enumerate **every** match of every
//! tgd's premise conjunction (s-t premises against `I`, target premises
//! against the chased `J`), materializing `Vec<Bindings>` exactly as the
//! chase consumes it on both sides. Both executors share the same plans
//! and the same lazily built hash indexes (warmup builds them), and the
//! fuzz gate (`crates/query/tests/fuzz_differential.rs`) pins their
//! enumeration sequences byte-identical — so the sweep measures pure
//! executor overhead: per-binding allocation, locking, and posting-list
//! copies in the lazy iterator versus the batch pipeline's compiled
//! stages, pinned indexes, and probe memos. Batch size 1 shows the
//! pipeline's fixed overhead; 64 and 1024 show the amortized win.

use routes_chase::{chase, ChaseOptions};
use routes_gen::hierarchy::DeepRows;
use routes_gen::{deep_scenario, random_scenario, relational_scenario, Scenario, TpchRows};
use routes_mapping::{SchemaMapping, TgdId, TgdKind};
use routes_model::Instance;
use routes_query::{
    batch_matches_with_plan_into, plan, BatchOptions, BindingBatch, Bindings, EvalOptions,
    MatchIter,
};

use std::time::Instant;

use crate::{bench_spread, secs, Table};

/// Batch sizes swept against the row-at-a-time baseline.
pub const JOIN_BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// One full-enumeration workload: a mapping plus the instances its tgd
/// premises join against.
struct Workload {
    generator: &'static str,
    name: String,
    mapping: SchemaMapping,
    source: Instance,
    target: Instance,
}

fn workload(generator: &'static str, mut scenario: Scenario) -> Workload {
    let chased = chase(
        &scenario.mapping,
        &scenario.source,
        &mut scenario.pool,
        ChaseOptions::fresh(),
    )
    .expect("generated scenarios chase");
    Workload {
        generator,
        name: scenario.name,
        mapping: scenario.mapping,
        source: scenario.source,
        target: chased.target,
    }
}

fn lhs_instance(w: &Workload, id: TgdId) -> &Instance {
    match id.kind() {
        TgdKind::SourceToTarget => &w.source,
        TgdKind::Target => &w.target,
    }
}

/// Row-at-a-time baseline: drain the lazy iterator over every tgd premise,
/// materializing each match exactly as the pre-vectorization chase did
/// (`all_matches` clones every yielded binding).
fn enumerate_lazy(w: &Workload) -> u64 {
    let mut count = 0u64;
    let mut out: Vec<Bindings> = Vec::new();
    for id in w.mapping.tgd_ids() {
        let tgd = w.mapping.tgd(id);
        let mut it = MatchIter::new(
            lhs_instance(w, id),
            tgd.lhs(),
            Bindings::new(tgd.var_count()),
        );
        out.clear();
        while let Some(b) = it.next_match() {
            out.push(b.clone());
        }
        count += out.len() as u64;
    }
    count
}

/// Vectorized path: push every tgd premise through the batch pipeline,
/// materializing `Vec<Bindings>` the way the chase saturation loop consumes
/// it (`batch_matches_with_plan_into`).
fn enumerate_batched(w: &Workload, batch_size: usize) -> u64 {
    let opts = BatchOptions {
        eval: EvalOptions::default(),
        batch_size,
    };
    let mut count = 0u64;
    let mut out: Vec<Bindings> = Vec::new();
    for id in w.mapping.tgd_ids() {
        let tgd = w.mapping.tgd(id);
        let inst = lhs_instance(w, id);
        let init = Bindings::new(tgd.var_count());
        let order = plan(inst, tgd.lhs(), &init);
        let seeds = BindingBatch::seed(&init);
        out.clear();
        batch_matches_with_plan_into(inst, tgd.lhs(), &order, &seeds, &opts, &mut out);
        count += out.len() as u64;
    }
    count
}

/// Run the sweep. `quick` shrinks instances and samples for CI smoke.
pub fn join_benches(quick: bool) -> Table {
    let (warmup, samples) = if quick { (1, 1) } else { (2, 7) };
    let mut workloads: Vec<Workload> = Vec::new();

    // TPC-H copy groups with 3 joins per tgd premise (paper Figure 9's
    // M3), at two scales.
    let tpch_scales: &[f64] = if quick { &[0.002] } else { &[0.01, 0.03] };
    for &sf in tpch_scales {
        let mut w = workload(
            "tpch",
            relational_scenario(3, &TpchRows::scale(sf), 7).scenario,
        );
        w.name = format!("M3-sf{sf}");
        workloads.push(w);
    }

    // Deep hierarchy: one 5-atom chain join per premise.
    let deep = if quick {
        DeepRows {
            regions: 3,
            nations_per: 3,
            customers_per: 4,
            orders_per: 3,
            lineitems_per: 2,
        }
    } else {
        DeepRows {
            regions: 5,
            nations_per: 5,
            customers_per: 10,
            orders_per: 8,
            lineitems_per: 4,
        }
    };
    let mut w = workload("hierarchy", deep_scenario(&deep, 11).scenario);
    w.name = format!("deep-{}nodes", deep.total_nodes());
    workloads.push(w);

    // Random mappings: many small scenarios enumerated back to back, the
    // shape `findHom` probes take.
    let n_random = if quick { 8 } else { 64 };
    for seed in 0..n_random {
        workloads.push(workload("random", random_scenario(0x901D + seed)));
    }

    let timed: Vec<String> = ["row", "batch1", "batch64", "batch1024"]
        .iter()
        .flat_map(|e| {
            [
                format!("{e}_seconds"),
                format!("{e}_min"),
                format!("{e}_max"),
            ]
        })
        .collect();
    let mut header = vec!["generator", "scenario", "tgds", "matches", "trials"];
    header.extend(timed.iter().map(String::as_str));
    header.push("speedup_batch64");
    let mut out = Table::new("micro_join", &header);
    let spread = |f: &dyn Fn() -> u64| {
        bench_spread(warmup, samples, || {
            let start = Instant::now();
            f();
            start.elapsed()
        })
    };

    // The random workloads are individually tiny; time them as one group
    // so the measurement stays above clock noise.
    let groups: Vec<Vec<&Workload>> = {
        let mut named: Vec<Vec<&Workload>> = workloads
            .iter()
            .filter(|w| w.generator != "random")
            .map(|w| vec![w])
            .collect();
        let random: Vec<&Workload> = workloads
            .iter()
            .filter(|w| w.generator == "random")
            .collect();
        named.push(random);
        named
    };
    for group in groups {
        let total = |f: &dyn Fn(&Workload) -> u64| -> u64 { group.iter().map(|w| f(w)).sum() };
        let matches = total(&enumerate_lazy);
        for batch_size in JOIN_BATCH_SIZES {
            assert_eq!(
                total(&|w| enumerate_batched(w, batch_size)),
                matches,
                "batch and lazy executors must enumerate the same matches"
            );
        }
        let mut times = vec![spread(&|| total(&enumerate_lazy))];
        for b in JOIN_BATCH_SIZES {
            times.push(spread(&|| total(&|w| enumerate_batched(w, b))));
        }
        let speedup = if times[2][1].as_secs_f64() > 0.0 {
            times[0][1].as_secs_f64() / times[2][1].as_secs_f64()
        } else {
            f64::INFINITY
        };
        let (generator, name, tgds) = match group.as_slice() {
            [w] => (
                w.generator,
                w.name.clone(),
                w.mapping.tgd_ids().count().to_string(),
            ),
            many => (
                "random",
                format!("{}-scenarios", many.len()),
                many.iter()
                    .map(|w| w.mapping.tgd_ids().count())
                    .sum::<usize>()
                    .to_string(),
            ),
        };
        let mut row = vec![
            generator.to_owned(),
            name,
            tgds,
            matches.to_string(),
            samples.to_string(),
        ];
        for [min, median, max] in times {
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
        let table = join_benches(true);
        // tpch sweep + hierarchy + the pooled random group.
        assert_eq!(table.rows.len(), 3);
        for row in &table.rows {
            assert_eq!(row.len(), 18);
            assert!(
                row[3].parse::<u64>().unwrap() > 0,
                "workloads must enumerate matches"
            );
            assert!(row[5].parse::<f64>().unwrap() >= 0.0);
            assert!(row[17].parse::<f64>().unwrap() > 0.0);
        }
    }
}
