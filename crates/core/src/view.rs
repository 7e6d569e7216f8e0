//! Plain-data views of routes and route forests.
//!
//! [`Route`], [`RouteForest`], and [`SatisfactionStep`] borrow interned
//! identifiers that only resolve against a [`RouteEnv`] and [`ValuePool`].
//! The views here resolve everything up front into owned strings and
//! indices, so a caller can show or serialize them without holding the
//! pool or the instances, and without this crate committing to any wire
//! format. The HTTP server writes its answers straight from routes and
//! forests instead (`routes_server::answer`); these views are the display
//! API, the oracle that writer is tested against, and the input of the
//! benchmark's in-process replay.

use routes_model::{tuple_to_string, Side, TupleId, ValuePool, Var};

use crate::env::RouteEnv;
use crate::forest::{Branch, RouteForest};
use crate::route::Route;
use crate::step::SatisfactionStep;

/// A resolved reference to one tuple: enough to re-select it (`relation` +
/// `row`) and to show it (`text`, e.g. `T7(a)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleRef {
    /// Relation name in the owning schema.
    pub relation: String,
    /// Row index within that relation.
    pub row: u32,
    /// Rendered tuple, `Rel(v1, v2, ...)`.
    pub text: String,
}

impl TupleRef {
    fn build(pool: &ValuePool, env: &RouteEnv<'_>, side: Side, id: TupleId) -> Self {
        let (schema, inst) = match side {
            Side::Source => (env.mapping.source(), env.source),
            Side::Target => (env.mapping.target(), env.target),
        };
        TupleRef {
            relation: schema.relation(id.rel).name().to_owned(),
            row: id.row,
            text: tuple_to_string(pool, schema, inst, id),
        }
    }
}

/// One premise of a step or branch: a source or target tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactView {
    /// `true` for source facts (leaves of a forest), `false` for target
    /// facts (which a forest expands further).
    pub source: bool,
    /// The tuple itself.
    pub tuple: TupleRef,
}

/// One satisfaction step `K1 --σ,h--> K2`, fully resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepView {
    /// The tgd's name (e.g. `m2`).
    pub tgd: String,
    /// The total assignment as `(variable name, rendered value)` pairs, in
    /// the tgd's dense variable order.
    pub hom: Vec<(String, String)>,
    /// `LHS(h(σ))` — the step's premises.
    pub lhs: Vec<FactView>,
    /// `RHS(h(σ))` — the target tuples the step witnesses.
    pub rhs: Vec<TupleRef>,
}

/// A route as a resolved step list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteView {
    /// The steps, in application order.
    pub steps: Vec<StepView>,
}

/// One branch `(σ, h)` of a forest node, resolved like a [`StepView`].
pub type BranchView = StepView;

/// One explored node of a route forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestNodeView {
    /// The node's tuple.
    pub tuple: TupleRef,
    /// Its branches (empty means the tuple has no witnessing assignment).
    pub branches: Vec<BranchView>,
}

/// A route forest as a resolved node list plus summary facts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForestView {
    /// The selected tuples the forest was built for.
    pub roots: Vec<TupleRef>,
    /// Every explored node, in exploration order.
    pub nodes: Vec<ForestNodeView>,
    /// Total branch count (Proposition 3.6's polynomial size).
    pub num_branches: usize,
    /// Whether every root has at least one route in the forest.
    pub all_roots_provable: bool,
}

fn resolve_step(
    pool: &ValuePool,
    env: &RouteEnv<'_>,
    tgd: routes_mapping::TgdId,
    hom: &[routes_model::Value],
    lhs_facts: &[routes_model::Fact],
    rhs_tuples: &[TupleId],
) -> StepView {
    let tgd_ref = env.mapping.tgd(tgd);
    StepView {
        tgd: tgd_ref.name().to_owned(),
        hom: (0..tgd_ref.var_count() as u32)
            .map(|v| {
                (
                    tgd_ref.var_name(Var(v)).to_owned(),
                    pool.value_to_string(hom[v as usize]),
                )
            })
            .collect(),
        lhs: lhs_facts
            .iter()
            .map(|f| FactView {
                source: f.side == Side::Source,
                tuple: TupleRef::build(pool, env, f.side, f.id),
            })
            .collect(),
        rhs: rhs_tuples
            .iter()
            .map(|&t| TupleRef::build(pool, env, Side::Target, t))
            .collect(),
    }
}

impl StepView {
    /// Resolve one step against its environment. Steps whose LHS or RHS no
    /// longer resolves (a foreign or corrupted step) render with empty
    /// fact lists rather than failing — views are for display, not proof.
    pub fn build(pool: &ValuePool, env: &RouteEnv<'_>, step: &SatisfactionStep) -> Self {
        let lhs = step.lhs_facts(env).unwrap_or_default();
        let rhs = step.rhs_tuples(env).unwrap_or_default();
        resolve_step(pool, env, step.tgd, &step.hom, &lhs, &rhs)
    }
}

impl RouteView {
    /// Resolve a whole route.
    pub fn build(pool: &ValuePool, env: &RouteEnv<'_>, route: &Route) -> Self {
        RouteView {
            steps: route
                .steps()
                .iter()
                .map(|s| StepView::build(pool, env, s))
                .collect(),
        }
    }
}

impl ForestView {
    /// Resolve a whole forest. Nodes appear in the forest's deterministic
    /// exploration order; branch children reference nodes by tuple.
    pub fn build(pool: &ValuePool, env: &RouteEnv<'_>, forest: &RouteForest) -> Self {
        let resolve_branch =
            |b: &Branch| resolve_step(pool, env, b.tgd, &b.hom, &b.lhs_facts, &b.rhs_tuples);
        ForestView {
            roots: forest
                .roots
                .iter()
                .map(|&r| TupleRef::build(pool, env, Side::Target, r))
                .collect(),
            nodes: forest
                .order
                .iter()
                .map(|&t| ForestNodeView {
                    tuple: TupleRef::build(pool, env, Side::Target, t),
                    branches: forest.branches_of(t).iter().map(resolve_branch).collect(),
                })
                .collect(),
            num_branches: forest.num_branches(),
            all_roots_provable: forest.all_roots_provable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_routes::compute_all_routes;
    use crate::one_route::compute_one_route;
    use crate::testkit::example_3_5;

    #[test]
    fn route_view_resolves_steps() {
        let (m, i, j, pool) = example_3_5();
        let env = RouteEnv::new(&m, &i, &j);
        let t7_rel = m.target().rel_id("T7").unwrap();
        let t7 = j.rel_rows(t7_rel).next().unwrap();
        let route = compute_one_route(env, &[t7]).unwrap();
        let view = RouteView::build(&pool, &env, &route);
        assert_eq!(view.steps.len(), route.len());
        let last = view.steps.last().unwrap();
        assert!(!last.tgd.is_empty());
        assert!(last
            .hom
            .iter()
            .all(|(name, value)| { !name.is_empty() && !value.is_empty() }));
        assert!(view
            .steps
            .iter()
            .any(|s| s.rhs.iter().any(|t| t.relation == "T7")));
    }

    #[test]
    fn forest_view_mirrors_forest_shape() {
        let (m, i, j, pool) = example_3_5();
        let env = RouteEnv::new(&m, &i, &j);
        let t7_rel = m.target().rel_id("T7").unwrap();
        let t7 = j.rel_rows(t7_rel).next().unwrap();
        let forest = compute_all_routes(env, &[t7]);
        let view = ForestView::build(&pool, &env, &forest);
        assert_eq!(view.roots.len(), 1);
        assert_eq!(view.nodes.len(), forest.num_nodes());
        assert_eq!(view.num_branches, forest.num_branches());
        assert!(view.all_roots_provable);
        // Every branch's source premises are flagged as leaves.
        for node in &view.nodes {
            for b in &node.branches {
                for f in &b.lhs {
                    if f.source {
                        assert!(!f.tuple.text.is_empty());
                    }
                }
            }
        }
    }
}
