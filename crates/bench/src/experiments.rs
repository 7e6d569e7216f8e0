//! The experiment implementations, one per paper figure/table.

use std::time::Duration;

use routes_chase::ChaseOptions;
use routes_core::{
    compute_all_routes, compute_one_route, compute_one_route_with, OneRouteOptions, RouteEnv,
};
use routes_gen::hierarchy::{deep_scenario, flat_scenario, DeepRows};
use routes_gen::real::{dblp_scenario, mondial_scenario};
use routes_gen::relational::relational_scenario;
use routes_gen::scenario::random_tuples;
use routes_gen::TpchRows;
use routes_model::{Instance, TupleId};

use crate::table::Table;
use crate::{bench_timed, measure, secs};

/// Maps the paper's instance-size labels to TPC-H scale factors, scaled by
/// a reproduction factor.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Multiplier applied to the paper-equivalent scale factor. 1.0 matches
    /// the paper's DB2 sizes; the default 0.1 keeps a full run in minutes.
    pub factor: f64,
}

impl Default for Sizing {
    fn default() -> Self {
        Sizing { factor: 0.1 }
    }
}

impl Sizing {
    /// The paper's four relational sizes, as (label, scale factor) pairs.
    pub fn relational_sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("10MB", 0.01 * self.factor),
            ("50MB", 0.05 * self.factor),
            ("100MB", 0.1 * self.factor),
            ("500MB", 0.5 * self.factor),
        ]
    }

    /// The paper's "100 MB" point used by Figures 10(b)-(d).
    pub fn mid_size(&self) -> f64 {
        0.1 * self.factor
    }

    /// The paper's flat-hierarchy sizes (0.5/1/5 MB).
    pub fn flat_sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("500KB", 0.0005 * self.factor * 10.0),
            ("1MB", 0.001 * self.factor * 10.0),
            ("5MB", 0.005 * self.factor * 10.0),
        ]
    }
}

/// The selection sizes swept by the figures (the paper plots 1..=20).
pub const SELECTION_SIZES: [usize; 6] = [1, 2, 5, 10, 15, 20];

fn one_route_time(env: RouteEnv<'_>, selection: &[TupleId], eager: bool) -> Duration {
    let options = OneRouteOptions {
        eager_findhom: eager,
        ..OneRouteOptions::default()
    };
    let (d, result) = measure(|| compute_one_route_with(env, selection, &options));
    result.expect("benchmark selections always have routes");
    d
}

fn all_routes_time(env: RouteEnv<'_>, selection: &[TupleId]) -> Duration {
    let (d, forest) = measure(|| compute_all_routes(env, selection));
    assert!(forest.all_roots_provable());
    d
}

/// **Figure 10(a)**: `ComputeOneRoute` vs. number of selected tuples for
/// four instance sizes; 1-join tgds (`M1`), selections from group 3
/// (M/T = 3).
pub fn fig10a(sizing: &Sizing) -> Table {
    let mut table = Table::new(
        "Figure 10(a): one route, varying |I|,|J|; 1-join tgds, M/T=3",
        &["tuples", "I:10MB", "I:50MB", "I:100MB", "I:500MB"],
    );
    let mut columns: Vec<Vec<Duration>> = Vec::new();
    for (label, sf) in sizing.relational_sizes() {
        let mut sc = relational_scenario(1, &TpchRows::scale(sf), 0xA11CE);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let mut col = Vec::new();
        for (k, &n) in SELECTION_SIZES.iter().enumerate() {
            let selection = sc.select_from_group(&solution, 3, n, 1000 + k as u64);
            col.push(one_route_time(env, &selection, false));
        }
        eprintln!(
            "  fig10a: size {label} done (|I| ≈ {:.1} MB, |J| ≈ {:.1} MB in memory)",
            sc.scenario.source.approx_heap_bytes() as f64 / 1e6,
            solution.approx_heap_bytes() as f64 / 1e6,
        );
        columns.push(col);
    }
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in &columns {
            row.push(secs(col[k]));
        }
        table.push(row);
    }
    table
}

/// **Figure 10(b)**: `ComputeOneRoute` vs. M/T factor 1–6; 3-join tgds
/// (`M3`), |I| = "100 MB".
pub fn fig10b(sizing: &Sizing) -> Table {
    let mut table = Table::new(
        "Figure 10(b): one route, varying M/T factor 1..6; 3-join tgds, |I|=100MB",
        &[
            "tuples", "M/T=1", "M/T=2", "M/T=3", "M/T=4", "M/T=5", "M/T=6",
        ],
    );
    let mut sc = relational_scenario(3, &TpchRows::scale(sizing.mid_size()), 0xB0B);
    let solution = sc.scenario.solution().expect("chase succeeds").target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    let mut columns: Vec<Vec<Duration>> = Vec::new();
    for mt in 1..=6usize {
        let mut col = Vec::new();
        for (k, &n) in SELECTION_SIZES.iter().enumerate() {
            let selection = sc.select_from_group(&solution, mt, n, 2000 + k as u64);
            col.push(one_route_time(env, &selection, false));
        }
        eprintln!("  fig10b: M/T {mt} done");
        columns.push(col);
    }
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in &columns {
            row.push(secs(col[k]));
        }
        table.push(row);
    }
    table
}

/// **Figure 10(c)**: `ComputeOneRoute` vs. tgd complexity (0–3 joins);
/// M/T = 3, |I| = "100 MB".
pub fn fig10c(sizing: &Sizing) -> Table {
    let mut table = Table::new(
        "Figure 10(c): one route, varying tgd joins 0..3; M/T=3, |I|=100MB",
        &["tuples", "no joins", "1 join", "2 joins", "3 joins"],
    );
    let mut columns: Vec<Vec<Duration>> = Vec::new();
    for joins in 0..=3usize {
        let mut sc = relational_scenario(joins, &TpchRows::scale(sizing.mid_size()), 0xC0C0);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let mut col = Vec::new();
        for (k, &n) in SELECTION_SIZES.iter().enumerate() {
            let selection = sc.select_from_group(&solution, 3, n, 3000 + k as u64);
            col.push(one_route_time(env, &selection, false));
        }
        eprintln!("  fig10c: {joins} joins done");
        columns.push(col);
    }
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in &columns {
            row.push(secs(col[k]));
        }
        table.push(row);
    }
    table
}

/// Timed runs per [`fig10d`] cell, after one warm-up run.
const FIG10D_TRIALS: usize = 7;

/// **Figure 10(d)**: `ComputeOneRoute` vs. `ComputeAllRoutes` (log scale in
/// the paper); 1-join tgds, M/T = 3, |I| = "100 MB". The all-routes time
/// covers forest construction only, matching the paper ("does not include
/// the time required to print all routes").
///
/// Each cell is the median of `FIG10D_TRIALS` timed runs after a warm-up
/// ([`bench_timed`]), written with the runs' min and max; the ratio is of
/// the medians.
pub fn fig10d(sizing: &Sizing) -> Table {
    let mut table = Table::new(
        "Figure 10(d): one route vs. all routes; 1-join tgds, M/T=3, |I|=100MB",
        &[
            "tuples",
            "trials",
            "computeOneRoute",
            "computeOneRoute_min",
            "computeOneRoute_max",
            "computeAllRoutes",
            "computeAllRoutes_min",
            "computeAllRoutes_max",
            "ratio",
        ],
    );
    let mut sc = relational_scenario(1, &TpchRows::scale(sizing.mid_size()), 0xD0D0);
    let solution = sc.scenario.solution().expect("chase succeeds").target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let selection = sc.select_from_group(&solution, 3, n, 4000 + k as u64);
        let one = bench_timed(1, FIG10D_TRIALS, || {
            compute_one_route(env, &selection).expect("benchmark selections always have routes")
        });
        assert!(compute_all_routes(env, &selection).all_roots_provable());
        let all = bench_timed(1, FIG10D_TRIALS, || compute_all_routes(env, &selection));
        let ratio = all[1].as_secs_f64() / one[1].as_secs_f64().max(1e-9);
        let mut row = vec![n.to_string(), FIG10D_TRIALS.to_string()];
        row.extend([one[1], one[0], one[2], all[1], all[0], all[2]].map(secs));
        row.push(format!("{ratio:.1}x"));
        table.push(row);
        eprintln!("  fig10d: n={n} done");
    }
    table
}

/// **Flat-hierarchy** (§4.1; the paper omits the graphs): one-route time
/// for depth-1 nested schemas, sweeping instance size, selection size, M/T
/// factor, and join count. XML-mode (`eager_findhom`) matches the paper's
/// Saxon behaviour.
pub fn flat_hierarchy(sizing: &Sizing) -> Vec<Table> {
    // Sweep 1: sizes × selection count (1 join, M/T = 3).
    let mut by_size = Table::new(
        "Flat hierarchy: one route, varying |I|; 1-join tgds, M/T=3 (XML eager mode)",
        &["elements", "I:500KB", "I:1MB", "I:5MB"],
    );
    let mut columns: Vec<Vec<Duration>> = Vec::new();
    for (label, sf) in sizing.flat_sizes() {
        let mut sc = flat_scenario(1, &TpchRows::scale(sf), 0xF1A7);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let mut col = Vec::new();
        for (k, &n) in SELECTION_SIZES.iter().enumerate() {
            let selection = sc.select_from_group(&solution, 3, n, 5000 + k as u64);
            col.push(one_route_time(env, &selection, true));
        }
        eprintln!("  flat: size {label} done");
        columns.push(col);
    }
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in &columns {
            row.push(secs(col[k]));
        }
        by_size.push(row);
    }

    // Sweep 2: M/T factor and join count at the middle size, 10 elements.
    let mut by_mt = Table::new(
        "Flat hierarchy: one route for 10 elements, varying M/T and joins (XML eager mode)",
        &["parameter", "value", "time(s)"],
    );
    let mid = sizing.flat_sizes()[1].1;
    {
        let mut sc = flat_scenario(1, &TpchRows::scale(mid), 0xF1A8);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        for mt in 1..=6usize {
            let selection = sc.select_from_group(&solution, mt, 10, 6000 + mt as u64);
            let d = one_route_time(env, &selection, true);
            by_mt.push(vec!["M/T".into(), mt.to_string(), secs(d)]);
        }
    }
    for joins in 0..=3usize {
        let mut sc = flat_scenario(joins, &TpchRows::scale(mid), 0xF1A9);
        let solution = sc.scenario.solution().expect("chase succeeds").target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let selection = sc.select_from_group(&solution, 3, 10, 7000);
        let d = one_route_time(env, &selection, true);
        by_mt.push(vec!["joins".into(), joins.to_string(), secs(d)]);
        eprintln!("  flat: joins {joins} done");
    }
    vec![by_size, by_mt]
}

/// **Figure 11**: deep hierarchy — one-route time vs. the nesting depth of
/// the selected elements (1–5), |I| = |J| ≈ 700 KB, one copying s-t tgd, no
/// target tgds. Depth-1 selections are capped at 5 (there are only 5
/// regions), exactly as the paper notes.
pub fn fig11(sizing: &Sizing) -> Table {
    let mut table = Table::new(
        "Figure 11: one route, varying selection depth 1..5; |I|=|J|=700KB (XML eager mode)",
        &[
            "elements", "depth 1", "depth 2", "depth 3", "depth 4", "depth 5",
        ],
    );
    // DeepRows::default is the 700 KB shape; sizing.factor scales the fanout
    // of the two largest levels.
    let mut rows = DeepRows::default();
    if sizing.factor < 0.05 {
        rows.customers_per = (rows.customers_per / 2).max(1);
    }
    let mut sc = deep_scenario(&rows, 0xDEE9);
    let solution = sc.scenario.solution().expect("chase succeeds").target;
    let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
    let mut columns: Vec<Vec<Option<Duration>>> = Vec::new();
    for depth in 1..=sc.max_depth() {
        let mut col = Vec::new();
        for (k, &n) in SELECTION_SIZES.iter().enumerate() {
            let selection = sc.select_at_depth(&solution, depth, n, 8000 + k as u64);
            if selection.len() < n {
                // Not enough elements at this depth (depth 1 has 5 regions).
                col.push(None);
                continue;
            }
            col.push(Some(one_route_time(env, &selection, true)));
        }
        eprintln!("  fig11: depth {depth} done");
        columns.push(col);
    }
    for (k, &n) in SELECTION_SIZES.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in &columns {
            row.push(col[k].map_or_else(|| "-".into(), secs));
        }
        table.push(row);
    }
    table
}

/// **Table 1 + §4.2**: the real-dataset scenarios — schema characteristics
/// side by side with the paper's numbers, then one-route vs. all-routes
/// timings for 1–10 randomly selected target tuples.
pub fn table1(sizing: &Sizing) -> Vec<Table> {
    let scale = sizing.factor.max(0.02);
    let mut stats_table = Table::new(
        "Table 1: dataset & schema-mapping characteristics (ours vs. paper)",
        &[
            "schema",
            "total elems",
            "atomic elems",
            "nest depth",
            "|Σst|/|Σt|",
            "paper",
        ],
    );
    let mut timing = Table::new(
        "§4.2 timings: one route vs. all routes on the real scenarios",
        &["scenario", "tuples", "one route(s)", "all routes(s)"],
    );

    let paper_rows = [
        ("DBLP1(XML)", "65/57/1"),
        ("DBLP2(XML)", "20/12/4"),
        ("Amalgam1(Rel)", "117/100/1, 10/14"),
        ("Mondial1(Rel)", "157/129/1"),
        ("Mondial2(XML)", "144/112/4, 13/25"),
    ];
    let mut scenarios = vec![
        dblp_scenario(scale, 0xDB19),
        mondial_scenario(scale, 0x30D1),
    ];
    let mut paper_iter = paper_rows.iter();
    for sc in &scenarios {
        let deps = format!(
            "{}/{}",
            sc.scenario.mapping.st_tgds().len(),
            sc.scenario.mapping.target_tgds().len()
        );
        for stat in &sc.stats {
            let paper = paper_iter.next().map(|(_, p)| *p).unwrap_or("-");
            stats_table.push(vec![
                stat.name.clone(),
                stat.total_elems.to_string(),
                stat.atomic_elems.to_string(),
                stat.depth.to_string(),
                deps.clone(),
                paper.to_owned(),
            ]);
        }
    }

    for sc in &mut scenarios {
        let name = sc.scenario.name.clone();
        let solution = sc
            .scenario
            .solution_with(ChaseOptions::fresh())
            .expect("real-scenario chase succeeds")
            .target;
        let env = RouteEnv::new(&sc.scenario.mapping, &sc.scenario.source, &solution);
        let all_rels: Vec<routes_model::RelId> = sc
            .scenario
            .mapping
            .target()
            .iter()
            .filter(|(r, _)| solution.rel_len(*r) > 0)
            .map(|(r, _)| r)
            .collect();
        for n in [1usize, 2, 5, 10] {
            let selection = pick_with_routes(env, &solution, &all_rels, n, 9000 + n as u64);
            let one = one_route_time(env, &selection, false);
            let all = all_routes_time(env, &selection);
            timing.push(vec![name.clone(), n.to_string(), secs(one), secs(all)]);
        }
        eprintln!("  table1: {name} done");
    }
    vec![stats_table, timing]
}

/// Random tuples that are guaranteed to have routes (chase-produced tuples
/// always do, but `Fresh`-chased real scenarios can contain tuples whose
/// only witness is the very tuple set selected — filter by a quick check).
fn pick_with_routes(
    env: RouteEnv<'_>,
    solution: &Instance,
    rels: &[routes_model::RelId],
    n: usize,
    seed: u64,
) -> Vec<TupleId> {
    let mut out = Vec::new();
    let mut attempt = 0u64;
    while out.len() < n && attempt < 50 {
        for t in random_tuples(solution, rels, n - out.len(), seed + attempt) {
            if !out.contains(&t) && compute_one_route(env, &[t]).is_ok() {
                out.push(t);
            }
        }
        attempt += 1;
    }
    assert!(!out.is_empty(), "no routable tuples found");
    out
}
