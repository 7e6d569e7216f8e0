//! Micro-benchmarks, formerly the five criterion harnesses under
//! `benches/` (`fig10`, `fig11`, `flat_hierarchy`, `table1`, `ablations`),
//! ported to the std [`bench_median`] harness so the workspace builds
//! offline with no external dependencies.
//!
//! Run via the `repro` binary: `repro micro` prints every group and writes
//! `bench_results/micro_*.csv`. Scales and selections are identical to the
//! criterion versions, so numbers remain comparable across the port.

use std::time::Duration;

use routes_chase::{chase, ChaseOptions};
use routes_core::{
    compute_all_routes, compute_one_route, compute_one_route_with, OneRouteOptions, RouteEnv,
};
use routes_gen::hierarchy::{deep_scenario, flat_scenario, DeepRows};
use routes_gen::real::{dblp_scenario, mondial_scenario, RealScenario};
use routes_gen::relational::relational_scenario;
use routes_gen::scenario::random_tuples;
use routes_gen::TpchRows;
use routes_model::{Atom, Instance, Schema, Term, TupleId, Value, Var};
use routes_query::{Bindings, EvalOptions, MatchIter};

use crate::{bench_median, secs, Table};

const BENCH_SF: f64 = 0.002;
/// Warmup and sample counts per timed point (criterion used sample sizes
/// 10–20 here; median-of-7 after 2 warmups keeps a full run fast while
/// still rejecting outliers).
const WARMUP: usize = 2;
const SAMPLES: usize = 7;

fn row(group: &str, case: &str, t: Duration) -> Vec<String> {
    vec![group.to_owned(), case.to_owned(), secs(t)]
}

fn xml_options() -> OneRouteOptions {
    OneRouteOptions {
        eager_findhom: true,
        ..OneRouteOptions::default()
    }
}

/// Formerly `benches/fig10.rs`: one-route by size / M-T factor / join count,
/// and one-route vs. all-routes.
fn fig10_micro(out: &mut Table) {
    for (label, sf) in [("small", 0.001), ("medium", 0.002), ("large", 0.005)] {
        let mut sc = relational_scenario(1, &TpchRows::scale(sf), 1);
        let solution = sc.scenario.solution().unwrap().target;
        let selection = sc.select_from_group(&solution, 3, 5, 42);
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let t = bench_median(WARMUP, SAMPLES, || {
            compute_one_route(env, &selection).unwrap()
        });
        out.push(row("fig10a_one_route_by_size", label, t));
    }
    {
        let mut sc = relational_scenario(3, &TpchRows::scale(BENCH_SF), 2);
        let solution = sc.scenario.solution().unwrap().target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        for mt in [1usize, 3, 6] {
            let selection = sc.select_from_group(&solution, mt, 5, 43);
            let t = bench_median(WARMUP, SAMPLES, || {
                compute_one_route(env, &selection).unwrap()
            });
            out.push(row("fig10b_one_route_by_mt", &mt.to_string(), t));
        }
    }
    for joins in 0..=3usize {
        let mut sc = relational_scenario(joins, &TpchRows::scale(BENCH_SF), 3);
        let solution = sc.scenario.solution().unwrap().target;
        let selection = sc.select_from_group(&solution, 3, 5, 44);
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let t = bench_median(WARMUP, SAMPLES, || {
            compute_one_route(env, &selection).unwrap()
        });
        out.push(row("fig10c_one_route_by_joins", &joins.to_string(), t));
    }
    {
        let mut sc = relational_scenario(1, &TpchRows::scale(BENCH_SF), 4);
        let solution = sc.scenario.solution().unwrap().target;
        let selection = sc.select_from_group(&solution, 3, 5, 45);
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let t = bench_median(WARMUP, SAMPLES, || {
            compute_one_route(env, &selection).unwrap()
        });
        out.push(row("fig10d_one_vs_all", "computeOneRoute", t));
        let t = bench_median(1, 5, || compute_all_routes(env, &selection));
        out.push(row("fig10d_one_vs_all", "computeAllRoutes", t));
    }
}

/// Formerly `benches/fig11.rs`: one-route by selected nesting depth in the
/// deep-hierarchy scenario (time *decreases* with depth).
fn fig11_micro(out: &mut Table) {
    let rows = DeepRows {
        regions: 5,
        nations_per: 4,
        customers_per: 4,
        orders_per: 3,
        lineitems_per: 3,
    };
    let mut sc = deep_scenario(&rows, 7);
    let solution = sc.scenario.solution().unwrap().target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    let options = xml_options();
    for depth in 1..=5usize {
        let selection = sc.select_at_depth(&solution, depth, 3, 46);
        let t = bench_median(1, 5, || {
            compute_one_route_with(env, &selection, &options).unwrap()
        });
        out.push(row("fig11_one_route_by_depth", &depth.to_string(), t));
    }
}

/// Formerly `benches/flat_hierarchy.rs`: one-route on depth-1 nested
/// schemas by size and join count, in XML mode.
fn flat_micro(out: &mut Table) {
    for (label, sf) in [("500KB", 0.0005), ("1MB", 0.001), ("5MB", 0.005)] {
        let mut sc = flat_scenario(1, &TpchRows::scale(sf), 8);
        let solution = sc.scenario.solution().unwrap().target;
        let selection = sc.select_from_group(&solution, 3, 5, 47);
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let options = xml_options();
        let t = bench_median(1, 5, || {
            compute_one_route_with(env, &selection, &options).unwrap()
        });
        out.push(row("flat_one_route_by_size", label, t));
    }
    for joins in 0..=3usize {
        let mut sc = flat_scenario(joins, &TpchRows::scale(0.001), 9);
        let solution = sc.scenario.solution().unwrap().target;
        let selection = sc.select_from_group(&solution, 3, 5, 48);
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let options = xml_options();
        let t = bench_median(1, 5, || {
            compute_one_route_with(env, &selection, &options).unwrap()
        });
        out.push(row("flat_one_route_by_joins", &joins.to_string(), t));
    }
}

fn routable_selection(env: RouteEnv<'_>, solution: &Instance, n: usize, seed: u64) -> Vec<TupleId> {
    let rels: Vec<_> = env
        .mapping
        .target()
        .iter()
        .filter(|(r, _)| solution.rel_len(*r) > 0)
        .map(|(r, _)| r)
        .collect();
    let mut out = Vec::new();
    let mut attempt = 0;
    while out.len() < n && attempt < 50 {
        for t in random_tuples(solution, &rels, n - out.len(), seed + attempt) {
            if !out.contains(&t) && compute_one_route(env, &[t]).is_ok() {
                out.push(t);
            }
        }
        attempt += 1;
    }
    out
}

/// Formerly `benches/table1.rs`: one route vs. all routes on the
/// DBLP→Amalgam and Mondial real-dataset stand-ins.
fn table1_micro(out: &mut Table) {
    let scenario = |name: &'static str, mut sc: RealScenario, out: &mut Table| {
        let solution = sc
            .scenario
            .solution_with(ChaseOptions::fresh())
            .unwrap()
            .target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let selection = routable_selection(env, &solution, 5, 50);
        assert!(!selection.is_empty());
        let group = format!("table1_{name}");
        let t = bench_median(1, 5, || compute_one_route(env, &selection).unwrap());
        out.push(row(&group, "one_route_5_tuples", t));
        let t = bench_median(1, 5, || compute_all_routes(env, &selection));
        out.push(row(&group, "all_routes_5_tuples", t));
    };
    scenario("dblp", dblp_scenario(0.02, 51), out);
    scenario("mondial", mondial_scenario(0.02, 52), out);
}

/// Formerly `benches/ablations.rs`: lazy vs. eager findHom, RHS-sibling
/// proving, chase modes, composite indexes, and chase scaling.
fn ablations_micro(out: &mut Table) {
    {
        let rows = DeepRows {
            regions: 4,
            nations_per: 4,
            customers_per: 4,
            orders_per: 3,
            lineitems_per: 3,
        };
        let mut sc = deep_scenario(&rows, 31);
        let solution = sc.scenario.solution().unwrap().target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let selection = sc.select_at_depth(&solution, 2, 4, 32);
        for (name, eager) in [("lazy", false), ("eager", true)] {
            let options = OneRouteOptions {
                eager_findhom: eager,
                ..OneRouteOptions::default()
            };
            let t = bench_median(WARMUP, SAMPLES, || {
                compute_one_route_with(env, &selection, &options).unwrap()
            });
            out.push(row("ablation_findhom_mode", name, t));
        }
    }
    {
        let mut sc = relational_scenario(1, &TpchRows::scale(0.002), 33);
        let solution = sc.scenario.solution().unwrap().target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let selection = sc.select_from_group(&solution, 4, 15, 34);
        for (name, on) in [("on", true), ("off", false)] {
            let options = OneRouteOptions {
                prove_rhs_siblings: on,
                ..OneRouteOptions::default()
            };
            let t = bench_median(WARMUP, SAMPLES, || {
                compute_one_route_with(env, &selection, &options).unwrap()
            });
            out.push(row("ablation_prove_rhs_siblings", name, t));
        }
    }
    {
        let sc = relational_scenario(1, &TpchRows::scale(0.001), 35);
        for (name, options) in [
            ("fresh_standard", ChaseOptions::fresh()),
            ("skolem_oblivious", ChaseOptions::skolem()),
        ] {
            let t = bench_median(1, 5, || {
                let mut pool = sc.scenario.pool.clone();
                chase(
                    &sc.scenario.mapping,
                    &sc.scenario.source,
                    &mut pool,
                    options,
                )
                .unwrap()
            });
            out.push(row("ablation_chase_mode", name, t));
        }
    }
    {
        // Skewed relation: both columns individually unselective (10
        // distinct values each over 100k rows), the pair selective.
        let mut schema = Schema::new();
        let rel = schema.rel("R", &["a", "b", "payload"]);
        let mut inst = Instance::new(&schema);
        for k in 0..100_000i64 {
            inst.insert_ok(
                rel,
                &[Value::Int(k % 10), Value::Int((k / 10) % 10), Value::Int(k)],
            );
        }
        let atoms = vec![Atom::new(
            rel,
            vec![Term::Var(Var(0)), Term::Var(Var(1)), Term::Var(Var(2))],
        )];
        let mut init = Bindings::new(3);
        init.set(Var(0), Value::Int(3));
        init.set(Var(1), Value::Int(7));
        for (name, threshold) in [("composite", 64usize), ("single_column_only", usize::MAX)] {
            let options = EvalOptions {
                composite_threshold: threshold,
            };
            let t = bench_median(WARMUP, SAMPLES, || {
                let mut it = MatchIter::with_options(&inst, &atoms, init.clone(), options);
                let mut n = 0usize;
                while it.next_match().is_some() {
                    n += 1;
                }
                n
            });
            out.push(row("ablation_composite_index", name, t));
        }
    }
    for (label, sf) in [
        ("sf_0.0005", 0.0005),
        ("sf_0.001", 0.001),
        ("sf_0.002", 0.002),
    ] {
        let sc = relational_scenario(1, &TpchRows::scale(sf), 36);
        let t = bench_median(1, 5, || {
            let mut pool = sc.scenario.pool.clone();
            chase(
                &sc.scenario.mapping,
                &sc.scenario.source,
                &mut pool,
                ChaseOptions::skolem(),
            )
            .unwrap()
            .target
            .total_tuples()
        });
        out.push(row("chase_scaling", label, t));
    }
}

/// Run every micro-benchmark group, one [`Table`] per retired criterion
/// harness, in the same order the `[[bench]]` targets were declared.
pub fn micro_benches() -> Vec<Table> {
    let header = &["group", "case", "median_seconds"];
    let mut tables = Vec::new();
    for (name, run) in [
        ("micro_fig10", fig10_micro as fn(&mut Table)),
        ("micro_fig11", fig11_micro),
        ("micro_flat_hierarchy", flat_micro),
        ("micro_table1", table1_micro),
        ("micro_ablations", ablations_micro),
    ] {
        let mut t = Table::new(name, header);
        run(&mut t);
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_median_is_a_sane_duration() {
        let mut n = 0u64;
        let d = bench_median(1, 3, || {
            n += 1;
            std::hint::black_box(n)
        });
        assert!(d < Duration::from_secs(1));
    }
}
