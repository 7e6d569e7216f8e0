//! The route forest: the polynomial-size representation of all routes for a
//! set of selected target tuples (paper §3.1).
//!
//! Every explored target tuple has a single, memoized list of branches; a
//! branch is a pair `(σ, h)` together with its resolved LHS facts (the
//! branch's children) and RHS tuples. Repeated occurrences of a tuple in the
//! conceptual tree all refer to the same node — the paper's back-references
//! ("every other occurrence of t has a link to the first t in F").
//!
//! [`RouteForest::provable_set`] — which tuples have a route inside the
//! forest, asked by every all-routes answer — is one counting pass, linear
//! in the forest's size even when the forest is one long chain.

use std::collections::{HashMap, HashSet};

use routes_mapping::{TgdId, TgdKind};
use routes_model::{Fact, TupleId, Value};

/// One branch `(σ, h)` under a tuple node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// The tgd of this branch.
    pub tgd: TgdId,
    /// The total assignment.
    pub hom: Box<[Value]>,
    /// `LHS(h(σ))`: the branch's children — source facts for s-t tgds,
    /// target facts for target tgds (deduplicated, in atom order).
    pub lhs_facts: Vec<Fact>,
    /// `RHS(h(σ))`: the target tuples this branch witnesses.
    pub rhs_tuples: Vec<TupleId>,
}

impl Branch {
    /// Whether this branch uses a source-to-target tgd (a leaf branch: its
    /// children are source facts and are never expanded).
    pub fn is_st(&self) -> bool {
        self.tgd.kind() == TgdKind::SourceToTarget
    }

    /// The target-side children of this branch (empty for s-t branches).
    pub fn target_children(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.lhs_facts.iter().filter_map(|f| match f.side {
            routes_model::Side::Target => Some(f.id),
            routes_model::Side::Source => None,
        })
    }
}

/// The route forest for a selection `Js` (paper Figure 3's output).
#[derive(Debug, Clone, Default)]
pub struct RouteForest {
    /// The selected tuples the forest was built for.
    pub roots: Vec<TupleId>,
    /// Memoized branches per explored target tuple.
    pub branches: HashMap<TupleId, Vec<Branch>>,
    /// Exploration order (for deterministic rendering).
    pub order: Vec<TupleId>,
}

impl RouteForest {
    /// Branches under a tuple (empty slice if the tuple was not explored or
    /// has no witnessing assignment at all).
    pub fn branches_of(&self, t: TupleId) -> &[Branch] {
        self.branches.get(&t).map_or(&[], Vec::as_slice)
    }

    /// Number of explored tuple nodes.
    pub fn num_nodes(&self) -> usize {
        self.branches.len()
    }

    /// Total number of branches across all nodes — the forest's size, which
    /// Proposition 3.6 bounds polynomially in `|I| + |J| + |Js|`.
    pub fn num_branches(&self) -> usize {
        self.branches.values().map(Vec::len).sum()
    }

    /// Compute the set of *provable* tuples: those for which at least one
    /// route exists within the forest. A tuple is provable iff it has an s-t
    /// branch, or a target branch all of whose target children are provable.
    ///
    /// This least fixpoint is computed by counting, in time linear in the
    /// forest's size: each target branch counts its target children not yet
    /// proven, and each newly proven tuple, taken from a queue, decrements
    /// the branches waiting on it. A branch whose count reaches zero proves
    /// its tuple. (Re-running the rule until nothing changes would cost one
    /// pass per link of the longest chain.)
    pub fn provable_set(&self) -> HashSet<TupleId> {
        // Tuples with an s-t branch are proven outright.
        let mut queue: Vec<TupleId> = self
            .branches
            .iter()
            .filter(|(_, branches)| branches.iter().any(Branch::is_st))
            .map(|(&t, _)| t)
            .collect();
        let mut provable: HashSet<TupleId> = queue.iter().copied().collect();
        // Per target branch: its tuple, and how many of its target children
        // were unproven when it was counted; `waiting` lists the branch under
        // each such child, once per occurrence.
        let mut pending: Vec<(TupleId, usize)> = Vec::new();
        let mut waiting: HashMap<TupleId, Vec<usize>> = HashMap::new();
        for (&t, branches) in &self.branches {
            for b in branches {
                if provable.contains(&t) {
                    break;
                }
                let mut unproven = 0;
                for child in b.target_children() {
                    if !provable.contains(&child) {
                        waiting.entry(child).or_default().push(pending.len());
                        unproven += 1;
                    }
                }
                if unproven == 0 {
                    provable.insert(t);
                    queue.push(t);
                } else {
                    pending.push((t, unproven));
                }
            }
        }
        while let Some(proven) = queue.pop() {
            for b in waiting.remove(&proven).unwrap_or_default() {
                let (t, unproven) = &mut pending[b];
                *unproven -= 1;
                if *unproven == 0 && provable.insert(*t) {
                    queue.push(*t);
                }
            }
        }
        provable
    }

    /// Whether every selected root has at least one route in the forest.
    pub fn all_roots_provable(&self) -> bool {
        let provable = self.provable_set();
        self.roots.iter().all(|r| provable.contains(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_model::{RelId, Side};

    fn tid(rel: u32, row: u32) -> TupleId {
        TupleId {
            rel: RelId(rel),
            row,
        }
    }

    fn branch(tgd: TgdId, children: &[TupleId], rhs: &[TupleId]) -> Branch {
        Branch {
            tgd,
            hom: Box::from([]),
            lhs_facts: children
                .iter()
                .map(|&id| Fact {
                    side: if tgd.kind() == TgdKind::SourceToTarget {
                        Side::Source
                    } else {
                        Side::Target
                    },
                    id,
                })
                .collect(),
            rhs_tuples: rhs.to_vec(),
        }
    }

    /// The rule of [`RouteForest::provable_set`], re-run until nothing
    /// changes: the oracle for the counting pass.
    fn fixpoint_provable(forest: &RouteForest) -> HashSet<TupleId> {
        let mut provable: HashSet<TupleId> = HashSet::new();
        loop {
            let mut changed = false;
            for (&t, branches) in &forest.branches {
                if provable.contains(&t) {
                    continue;
                }
                let ok = branches
                    .iter()
                    .any(|b| b.is_st() || b.target_children().all(|c| provable.contains(&c)));
                if ok {
                    provable.insert(t);
                    changed = true;
                }
            }
            if !changed {
                return provable;
            }
        }
    }

    #[test]
    fn provable_set_matches_the_fixpoint_on_random_forests() {
        // SplitMix64, so the forests are the same on every run.
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let (mut some_provable, mut some_not) = (0, 0);
        for case in 0..2_500 {
            let nodes = 1 + next(30) as u32;
            let mut forest = RouteForest::default();
            for n in 0..nodes {
                // Leave some tuples unexplored: children may name them.
                if next(6) == 0 {
                    continue;
                }
                let mut branches = Vec::new();
                for _ in 0..next(4) {
                    if next(6) == 0 {
                        branches.push(branch(TgdId::St(0), &[tid(9, n)], &[tid(0, n)]));
                    } else {
                        // Children anywhere, so cycles and self-loops occur,
                        // plus ids past `nodes` that are never explored.
                        let children: Vec<TupleId> = (0..1 + next(3))
                            .map(|_| tid(0, next(u64::from(nodes) + 3) as u32))
                            .collect();
                        branches.push(branch(TgdId::Target(0), &children, &[tid(0, n)]));
                    }
                }
                forest.branches.insert(tid(0, n), branches);
            }
            let provable = forest.provable_set();
            assert_eq!(provable, fixpoint_provable(&forest), "case {case}");
            some_provable += usize::from(!provable.is_empty());
            some_not += usize::from(provable.len() < forest.num_nodes());
        }
        assert!(
            some_provable > 500 && some_not > 500,
            "{some_provable} / {some_not}"
        );
    }

    #[test]
    fn provable_set_proves_a_long_chain() {
        // t0 <- target(t1) <- ... <- target(t_{n-1}) <- st: one pass of the
        // counting queue per link, whatever the map's iteration order.
        const N: u32 = 20_000;
        let mut forest = RouteForest {
            roots: vec![tid(0, 0)],
            ..Default::default()
        };
        for n in 0..N - 1 {
            forest.branches.insert(
                tid(0, n),
                vec![branch(TgdId::Target(0), &[tid(0, n + 1)], &[tid(0, n)])],
            );
        }
        forest.branches.insert(
            tid(0, N - 1),
            vec![branch(TgdId::St(0), &[tid(9, 0)], &[tid(0, N - 1)])],
        );
        assert_eq!(forest.provable_set().len(), N as usize);
        assert!(forest.all_roots_provable());
    }

    #[test]
    fn provable_set_fixpoint() {
        // t0 <- st; t1 <- target(t0); t2 <- target(t3) where t3 unexplored
        // (no branches): t2 not provable.
        let mut forest = RouteForest {
            roots: vec![tid(0, 1), tid(0, 2)],
            ..Default::default()
        };
        forest.branches.insert(
            tid(0, 0),
            vec![branch(TgdId::St(0), &[tid(9, 0)], &[tid(0, 0)])],
        );
        forest.branches.insert(
            tid(0, 1),
            vec![branch(TgdId::Target(0), &[tid(0, 0)], &[tid(0, 1)])],
        );
        forest.branches.insert(
            tid(0, 2),
            vec![branch(TgdId::Target(0), &[tid(0, 3)], &[tid(0, 2)])],
        );
        forest.branches.insert(tid(0, 3), vec![]);
        let provable = forest.provable_set();
        assert!(provable.contains(&tid(0, 0)));
        assert!(provable.contains(&tid(0, 1)));
        assert!(!provable.contains(&tid(0, 2)));
        assert!(!forest.all_roots_provable());
        assert_eq!(forest.num_nodes(), 4);
        assert_eq!(forest.num_branches(), 3);
    }

    #[test]
    fn cyclic_branches_are_not_provable_without_a_base() {
        // t0 <- target(t1), t1 <- target(t0): a cycle with no s-t entry.
        let mut forest = RouteForest::default();
        forest.branches.insert(
            tid(0, 0),
            vec![branch(TgdId::Target(0), &[tid(0, 1)], &[tid(0, 0)])],
        );
        forest.branches.insert(
            tid(0, 1),
            vec![branch(TgdId::Target(0), &[tid(0, 0)], &[tid(0, 1)])],
        );
        assert!(forest.provable_set().is_empty());
    }
}
