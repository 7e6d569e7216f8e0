//! Lazy index-nested-loop evaluation of conjunctions of atoms.

use routes_model::{Atom, Instance, Term, TupleId, Value, Var};

use crate::bindings::Bindings;
use crate::plan::plan;

/// Executor tuning.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// When an atom has two or more bound columns and its most selective
    /// single-column probe would return more than this many candidate rows,
    /// the executor probes a composite index on *all* bound columns instead.
    /// `usize::MAX` disables composite indexes (the ablation baseline).
    pub composite_threshold: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            composite_threshold: 64,
        }
    }
}

/// A resumable backtracking join over a conjunction of atoms.
///
/// Construction plans an atom order (see [`plan`]); each call to
/// [`MatchIter::next_match`] resumes the search and yields the next total
/// match as a reference to the internal [`Bindings`] (clone it to keep it).
///
/// Laziness matters for the paper's algorithms: `ComputeOneRoute` commits to
/// the **first** assignment `findHom` produces and only asks for more when a
/// branch fails or the user requests an alternative route, so evaluation cost
/// is proportional to how far the search actually advances.
pub struct MatchIter<'a> {
    inst: &'a Instance,
    atoms: &'a [Atom],
    order: Vec<usize>,
    bindings: Bindings,
    /// Candidate rows per depth.
    candidates: Vec<Vec<u32>>,
    /// Next candidate position per depth.
    pos: Vec<usize>,
    /// Variables bound by the current row at each depth (for undo).
    trail: Vec<Vec<Var>>,
    options: EvalOptions,
    started: bool,
    done: bool,
}

impl<'a> MatchIter<'a> {
    /// Start a match over `atoms` against `inst`, with `init` giving the
    /// variables already bound (they act as selection constants).
    ///
    /// # Panics
    /// Panics if `init`'s variable space does not cover all variables in
    /// `atoms`.
    pub fn new(inst: &'a Instance, atoms: &'a [Atom], init: Bindings) -> Self {
        Self::with_options(inst, atoms, init, EvalOptions::default())
    }

    /// [`MatchIter::new`] with explicit executor options.
    pub fn with_options(
        inst: &'a Instance,
        atoms: &'a [Atom],
        init: Bindings,
        options: EvalOptions,
    ) -> Self {
        let order = plan(inst, atoms, &init);
        Self::with_plan(inst, atoms, init, order, options)
    }

    /// A [`MatchIter`] that evaluates `order` (indices into `atoms`) in the
    /// given sequence instead of planning one. `order` may cover a subset of
    /// the conjunction; atoms outside it are ignored. This is the suffix
    /// executor of [`anchored_plan`]: fixing the plan keeps the match order
    /// identical to the sequential iterator the plan was taken from.
    pub fn with_plan(
        inst: &'a Instance,
        atoms: &'a [Atom],
        init: Bindings,
        order: Vec<usize>,
        options: EvalOptions,
    ) -> Self {
        let needed = routes_model::atom::var_space(atoms);
        assert!(
            init.capacity() >= needed,
            "bindings cover {} variables but atoms use {}",
            init.capacity(),
            needed
        );
        debug_assert!(order.iter().all(|&ai| ai < atoms.len()));
        let n = atoms.len();
        MatchIter {
            inst,
            atoms,
            order,
            bindings: init,
            candidates: vec![Vec::new(); n],
            pos: vec![0; n],
            trail: vec![Vec::new(); n],
            options,
            started: false,
            done: false,
        }
    }

    /// The current bindings (meaningful right after a successful
    /// [`MatchIter::next_match`]).
    pub fn bindings(&self) -> &Bindings {
        &self.bindings
    }

    /// Advance to the next total match. Returns `None` when exhausted.
    pub fn next_match(&mut self) -> Option<&Bindings> {
        if self.done {
            return None;
        }
        let n = self.order.len();
        let mut depth = if self.started {
            if n == 0 {
                // The empty conjunction has exactly one match.
                self.done = true;
                return None;
            }
            // Resume below the last yielded match.
            n - 1
        } else {
            self.started = true;
            if n == 0 {
                return Some(&self.bindings);
            }
            self.load_candidates(0);
            0
        };

        loop {
            let mut descended = false;
            while self.pos[depth] < self.candidates[depth].len() {
                let row = self.candidates[depth][self.pos[depth]];
                self.pos[depth] += 1;
                self.undo(depth);
                if self.try_row(depth, row) {
                    if depth + 1 == n {
                        return Some(&self.bindings);
                    }
                    depth += 1;
                    self.load_candidates(depth);
                    descended = true;
                    break;
                }
            }
            if descended {
                continue;
            }
            self.undo(depth);
            if depth == 0 {
                self.done = true;
                return None;
            }
            depth -= 1;
        }
    }

    /// Undo variable bindings made at `depth`.
    fn undo(&mut self, depth: usize) {
        for v in self.trail[depth].drain(..) {
            self.bindings.unset(v);
        }
    }

    /// Populate the candidate rows for the atom at `depth` ([`load_rows`]).
    fn load_candidates(&mut self, depth: usize) {
        self.pos[depth] = 0;
        let atom = &self.atoms[self.order[depth]];
        let buf = &mut self.candidates[depth];
        load_rows(self.inst, atom, &self.bindings, self.options, buf);
    }

    /// Attempt to match the atom at `depth` against `row`: check bound
    /// positions, bind unbound variables (recorded on the trail).
    fn try_row(&mut self, depth: usize, row: u32) -> bool {
        let atom = &self.atoms[self.order[depth]];
        let id = TupleId { rel: atom.rel, row };
        for (col, term) in atom.terms.iter().enumerate() {
            let actual = self.inst.value_at(id, col);
            match term {
                Term::Const(c) => {
                    if *c != actual {
                        self.undo(depth);
                        return false;
                    }
                }
                Term::Var(v) => match self.bindings.get(*v) {
                    Some(bound) => {
                        if bound != actual {
                            self.undo(depth);
                            return false;
                        }
                    }
                    None => {
                        self.bindings.set(*v, actual);
                        self.trail[depth].push(*v);
                    }
                },
            }
        }
        true
    }
}

/// Candidate rows for `atom` under `bindings`, exactly as the executor loads
/// them at each join depth: [`Instance::candidates`] over the atom's
/// constant and bound-variable columns.
fn load_rows(
    inst: &Instance,
    atom: &Atom,
    bindings: &Bindings,
    options: EvalOptions,
    buf: &mut Vec<u32>,
) {
    // A repeated variable bound twice contributes one pair per column,
    // which is what the composite key needs.
    let bound = atom.terms.iter().enumerate().filter_map(|(col, term)| {
        let value: Option<Value> = match term {
            Term::Const(c) => Some(*c),
            Term::Var(v) => bindings.get(*v),
        };
        value.map(|value| (col as u32, value))
    });
    inst.candidates(atom.rel, bound, options.composite_threshold, buf);
}

/// A conjunction decomposed for partitioned (anchored) evaluation: the
/// planned outermost atom, its candidate rows under the initial bindings, and
/// the evaluation order of the remaining atoms.
///
/// Anchoring `atoms[outer]` on one of `rows` (via
/// [`unify_atom`](crate::unify_atom)) and running the suffix through
/// [`MatchIter::with_plan`] yields exactly the matches the sequential
/// [`MatchIter`] finds while positioned on that row, in the same order — so
/// concatenating the per-row outputs in row order reproduces the sequential
/// match sequence no matter how `rows` is chunked across worker threads. This
/// is the determinism contract of the parallel chase.
#[derive(Debug, Clone)]
pub struct AnchoredPlan {
    /// Index (into the conjunction) of the planned outermost atom.
    pub outer: usize,
    /// Candidate rows of the outer atom's relation, in evaluation order.
    pub rows: Vec<u32>,
    /// Evaluation order of the remaining atoms (indices into the conjunction).
    pub suffix: Vec<usize>,
}

/// Decompose `atoms` for anchored evaluation (see [`AnchoredPlan`]). Returns
/// `None` for the empty conjunction, whose single match is `init` itself.
pub fn anchored_plan(inst: &Instance, atoms: &[Atom], init: &Bindings) -> Option<AnchoredPlan> {
    let mut order = plan(inst, atoms, init);
    if order.is_empty() {
        return None;
    }
    let suffix = order.split_off(1);
    let outer = order[0];
    let mut rows = Vec::new();
    load_rows(inst, &atoms[outer], init, EvalOptions::default(), &mut rows);
    Some(AnchoredPlan {
        outer,
        rows,
        suffix,
    })
}

/// The first match of `atoms` against `inst` extending `init`, if any.
pub fn first_match(inst: &Instance, atoms: &[Atom], init: Bindings) -> Option<Bindings> {
    let mut it = MatchIter::new(inst, atoms, init);
    it.next_match().cloned()
}

/// All matches, materialized. Prefer [`MatchIter`] when you may stop early.
pub fn all_matches(inst: &Instance, atoms: &[Atom], init: Bindings) -> Vec<Bindings> {
    let mut it = MatchIter::new(inst, atoms, init);
    let mut out = Vec::new();
    while let Some(b) = it.next_match() {
        out.push(b.clone());
    }
    out
}

/// Whether at least one match exists.
pub fn satisfiable(inst: &Instance, atoms: &[Atom], init: Bindings) -> bool {
    MatchIter::new(inst, atoms, init).next_match().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_model::{RelId, Schema};

    fn term_v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn setup() -> (Schema, Instance, RelId, RelId) {
        let mut s = Schema::new();
        let e = s.rel("E", &["src", "dst"]);
        let l = s.rel("L", &["node"]);
        let mut inst = Instance::new(&s);
        // A small graph: 0->1, 1->2, 2->3, 0->2; labels on 1 and 2.
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            inst.insert_ok(e, &[Value::Int(a), Value::Int(b)]);
        }
        inst.insert_ok(l, &[Value::Int(1)]);
        inst.insert_ok(l, &[Value::Int(2)]);
        (s, inst, e, l)
    }

    #[test]
    fn single_atom_scan() {
        let (_, inst, e, _) = setup();
        let atoms = vec![Atom::new(e, vec![term_v(0), term_v(1)])];
        let matches = all_matches(&inst, &atoms, Bindings::new(2));
        assert_eq!(matches.len(), 4);
        assert!(matches.iter().all(Bindings::is_total));
    }

    #[test]
    fn join_two_atoms() {
        let (_, inst, e, _) = setup();
        // Paths of length two: E(x,y) ∧ E(y,z).
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
        ];
        let matches = all_matches(&inst, &atoms, Bindings::new(3));
        // 0->1->2, 1->2->3, 0->2->3.
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn initial_bindings_restrict() {
        let (_, inst, e, _) = setup();
        let atoms = vec![Atom::new(e, vec![term_v(0), term_v(1)])];
        let mut init = Bindings::new(2);
        init.set(Var(0), Value::Int(0));
        let matches = all_matches(&inst, &atoms, init);
        assert_eq!(matches.len(), 2); // 0->1 and 0->2
    }

    #[test]
    fn constants_in_atoms() {
        let (_, inst, e, _) = setup();
        let atoms = vec![Atom::new(e, vec![Term::Const(Value::Int(0)), term_v(0)])];
        let matches = all_matches(&inst, &atoms, Bindings::new(1));
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut s = Schema::new();
        let r = s.rel("R", &["a", "b"]);
        let mut inst = Instance::new(&s);
        inst.insert_ok(r, &[Value::Int(1), Value::Int(1)]);
        inst.insert_ok(r, &[Value::Int(1), Value::Int(2)]);
        let atoms = vec![Atom::new(r, vec![term_v(0), term_v(0)])];
        let matches = all_matches(&inst, &atoms, Bindings::new(1));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].get(Var(0)), Some(Value::Int(1)));
    }

    #[test]
    fn empty_conjunction_has_one_match() {
        let (_, inst, _, _) = setup();
        let matches = all_matches(&inst, &[], Bindings::new(0));
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn unsatisfiable_join() {
        let (_, inst, e, l) = setup();
        // E(x, y) ∧ L(x) where x must be 1 or 2 and also have an out-edge
        // to a labeled node: E(1,2) ∧ L(1) ∧ L(2) works; force failure with
        // a constant that never occurs.
        let atoms = vec![
            Atom::new(e, vec![Term::Const(Value::Int(99)), term_v(0)]),
            Atom::new(l, vec![term_v(0)]),
        ];
        assert!(!satisfiable(&inst, &atoms, Bindings::new(1)));
        assert_eq!(first_match(&inst, &atoms, Bindings::new(1)), None);
    }

    #[test]
    fn lazy_iteration_yields_each_match_once() {
        let (_, inst, e, _) = setup();
        let atoms = vec![Atom::new(e, vec![term_v(0), term_v(1)])];
        let mut it = MatchIter::new(&inst, &atoms, Bindings::new(2));
        let mut seen = std::collections::HashSet::new();
        while let Some(b) = it.next_match() {
            assert!(seen.insert((b.get(Var(0)), b.get(Var(1)))));
        }
        assert_eq!(seen.len(), 4);
        // Exhausted iterators stay exhausted.
        assert!(it.next_match().is_none());
        assert!(it.next_match().is_none());
    }

    /// Replay an anchored decomposition: for each outer-atom candidate row,
    /// unify the anchor and enumerate the suffix under the fixed plan.
    fn replay_anchored(inst: &Instance, atoms: &[Atom], init: &Bindings) -> Vec<Bindings> {
        let Some(ap) = anchored_plan(inst, atoms, init) else {
            return vec![init.clone()];
        };
        let anchor = &atoms[ap.outer];
        let mut out = Vec::new();
        for &row in &ap.rows {
            let mut b = init.clone();
            let tuple = inst.tuple(TupleId {
                rel: anchor.rel,
                row,
            });
            if !crate::unify_atom(anchor, &tuple, &mut b) {
                continue;
            }
            let mut it =
                MatchIter::with_plan(inst, atoms, b, ap.suffix.clone(), EvalOptions::default());
            while let Some(m) = it.next_match() {
                out.push(m.clone());
            }
        }
        out
    }

    #[test]
    fn anchored_plan_reproduces_sequential_match_order() {
        let (_, inst, e, l) = setup();
        let term_c = |k: i64| Term::Const(Value::Int(k));
        let conjunctions: Vec<Vec<Atom>> = vec![
            // Single-atom scan.
            vec![Atom::new(e, vec![term_v(0), term_v(1)])],
            // Two-atom join.
            vec![
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(e, vec![term_v(1), term_v(2)]),
            ],
            // Join where the planner reorders (L is smaller, goes first).
            vec![
                Atom::new(e, vec![term_v(0), term_v(1)]),
                Atom::new(l, vec![term_v(0)]),
            ],
            // Constant in the anchor candidate set.
            vec![
                Atom::new(e, vec![term_c(0), term_v(0)]),
                Atom::new(e, vec![term_v(0), term_v(1)]),
            ],
        ];
        for atoms in &conjunctions {
            let vars = routes_model::atom::var_space(atoms);
            let sequential = all_matches(&inst, atoms, Bindings::new(vars));
            let anchored = replay_anchored(&inst, atoms, &Bindings::new(vars));
            assert_eq!(sequential, anchored, "atoms: {atoms:?}");
        }
    }

    #[test]
    fn anchored_plan_respects_initial_bindings() {
        let (_, inst, e, _) = setup();
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
        ];
        let mut init = Bindings::new(3);
        init.set(Var(0), Value::Int(0));
        let sequential = all_matches(&inst, &atoms, init.clone());
        let anchored = replay_anchored(&inst, &atoms, &init);
        assert_eq!(sequential, anchored);
    }

    #[test]
    fn anchored_plan_of_empty_conjunction_is_none() {
        let (_, inst, _, _) = setup();
        assert!(anchored_plan(&inst, &[], &Bindings::new(0)).is_none());
    }

    #[test]
    fn triangle_query_on_larger_graph() {
        let mut s = Schema::new();
        let e = s.rel("E", &["a", "b"]);
        let mut inst = Instance::new(&s);
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 0)];
        for (a, b) in edges {
            inst.insert_ok(e, &[Value::Int(a), Value::Int(b)]);
        }
        // Triangles: E(x,y) ∧ E(y,z) ∧ E(z,x).
        let atoms = vec![
            Atom::new(e, vec![term_v(0), term_v(1)]),
            Atom::new(e, vec![term_v(1), term_v(2)]),
            Atom::new(e, vec![term_v(2), term_v(0)]),
        ];
        let matches = all_matches(&inst, &atoms, Bindings::new(3));
        // Directed triangles: (0,1,2), (1,2,0), (2,0,1) plus the 2-cycle
        // 0->1->0 expands to (0,1,0),(1,0,1)? No: z=x is allowed only if
        // E(x,y),E(y,x),E(x,x) — no self loops. The 2-cycle 0<->1 gives
        // triangle (0,1,0)? That needs E(0,1),E(1,0),E(0,0): absent.
        // So exactly the rotations of the 0-1-2 triangle... plus 0->2? No
        // edge 0->2. And (2,3,0) rotations: E(2,3),E(3,0),E(0,2): absent.
        assert_eq!(matches.len(), 3);
    }
}
