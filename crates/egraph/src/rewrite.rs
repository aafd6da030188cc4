//! Rewrite rules: a searcher pattern, an applier pattern, an optional
//! side condition (used by TENSAT for shape checking), and optional
//! per-variable analysis guards that push the condition's per-variable
//! part into the e-matching machine.

use crate::machine::{search_one, Guard, GuardedProgram, SearchQuery};
use crate::pattern::ENodeOrVar;
use crate::{Analysis, EGraph, Id, Language, Pattern, SearchMatches, Subst, Var};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A side condition evaluated on each match before the rewrite is applied.
///
/// Receives the e-graph, the e-class the left-hand side matched in, and the
/// substitution; returns true if the rewrite may fire. TENSAT uses this for
/// tensor shape checking (paper §4).
///
/// Conditions that only depend on the analysis data of a *single* bound
/// variable's class should be expressed as guards instead
/// ([`Rewrite::with_guards`]): the machine then prunes the branch during
/// matching rather than discarding the finished substitution here.
pub type Condition<L, N> = Arc<dyn Fn(&EGraph<L, N>, Id, &Subst) -> bool + Send + Sync>;

/// A single-pattern rewrite rule `lhs => rhs` with an optional condition.
///
/// Multi-pattern rules (several simultaneous left-hand sides, paper §4
/// Algorithm 1) are built on top of these primitives in `tensat-core`.
#[derive(Clone)]
pub struct Rewrite<L: Language, N: Analysis<L>> {
    /// Human-readable rule name (used in reports and iteration stats).
    pub name: String,
    /// The pattern searched for.
    pub searcher: Pattern<L>,
    /// The pattern instantiated and unioned with each match.
    pub applier: Pattern<L>,
    /// Optional side condition; `None` means always applicable.
    pub condition: Option<Condition<L, N>>,
    /// The guarded searcher program, present when the rule was built with
    /// [`Rewrite::with_guards`]. When present, [`Rewrite::search`] runs it
    /// instead of the plain pattern program.
    guarded: Option<GuardedProgram<L, N::Data>>,
}

impl<L: Language, N: Analysis<L>> fmt::Debug for Rewrite<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.name)
            .field("searcher", &self.searcher.to_string())
            .field("applier", &self.applier.to_string())
            .field("conditional", &self.condition.is_some())
            .field(
                "guards",
                &self.guarded.as_ref().map_or(0, |g| g.guards().len()),
            )
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Creates an unconditional rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the right-hand side uses a variable that does not occur on
    /// the left-hand side.
    pub fn new(name: impl Into<String>, searcher: Pattern<L>, applier: Pattern<L>) -> Self {
        let lhs_vars = searcher.vars();
        for v in applier.vars() {
            assert!(
                lhs_vars.contains(&v),
                "rewrite right-hand side uses unbound variable {v}"
            );
        }
        Rewrite {
            name: name.into(),
            searcher,
            applier,
            condition: None,
            guarded: None,
        }
    }

    /// Creates a conditional rewrite.
    pub fn new_conditional(
        name: impl Into<String>,
        searcher: Pattern<L>,
        applier: Pattern<L>,
        condition: Condition<L, N>,
    ) -> Self {
        let mut rw = Self::new(name, searcher, applier);
        rw.condition = Some(condition);
        rw
    }

    /// Attaches per-variable analysis guards and compiles the guarded
    /// searcher program now (rule construction time, like
    /// [`Pattern::precompile`]). Guards for variables that do not occur in
    /// the searcher are dropped; duplicate entries for one variable are
    /// conjoined.
    ///
    /// A guard must be a *sound approximation* of the rule's condition: it
    /// may only reject bindings the condition (or the rule's semantics)
    /// would reject anyway, and it must be a pure function of the class
    /// analysis data. Under that contract, guarded search followed by the
    /// residual condition fires exactly the applications the unguarded rule
    /// fires on any fixed (clean) e-graph — the guard just kills dead
    /// branches inside the machine.
    ///
    /// One timing nuance inside a saturation loop: guards evaluate at
    /// *search* time, the residual condition at *apply* time, and unions
    /// performed earlier in the same apply batch can make a class's data
    /// admissible in between (analysis merges are monotone towards
    /// validity). Such a match, which the unguarded rule would have applied
    /// late in the same iteration, now fires in the next iteration instead —
    /// the e-graph only grows, so the match is re-found and the saturation
    /// fixpoint is unchanged.
    pub fn with_guards(mut self, guards: Vec<(Var, Guard<N::Data>)>) -> Self
    where
        N::Data: 'static,
    {
        let searcher_vars = self.searcher.vars();
        let guards: Vec<(Var, Guard<N::Data>)> = guards
            .into_iter()
            .filter(|(v, _)| searcher_vars.contains(v))
            .collect();
        self.guarded = if guards.is_empty() {
            None
        } else {
            Some(GuardedProgram::compile(&self.searcher.ast, &guards))
        };
        self
    }

    /// The guarded searcher program, if the rule carries guards.
    pub fn guarded_program(&self) -> Option<&GuardedProgram<L, N::Data>> {
        self.guarded.as_ref()
    }

    /// The `(program, guard table)` pair the search drivers take (see
    /// [`crate::search_all`]): the guarded program when the rule carries
    /// guards, otherwise the plain pattern program with an empty table.
    pub fn searcher_query(&self) -> SearchQuery<'_, L, N::Data> {
        match &self.guarded {
            Some(g) => g.query(),
            None => (self.searcher.program(), &[]),
        }
    }

    /// Searches the e-graph for matches of the left-hand side, through the
    /// guarded program when the rule carries guards (see
    /// [`Rewrite::with_guards`]).
    pub fn search(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        search_one(self.searcher_query(), egraph)
    }

    /// Applies the rewrite to the given matches in place, checking the
    /// e-graph's total node count against `node_limit` before every
    /// application and stopping as soon as the limit is reached (the check
    /// is O(1)). Returns the number of applications that changed the
    /// e-graph (i.e. caused a union) and whether the limit cut the loop
    /// short; a single application can overshoot the limit by at most the
    /// applier pattern's size. This is the in-place oracle the staged path
    /// ([`Rewrite::stage`] + [`EGraph::commit_log`]) is proven
    /// bit-identical against.
    pub fn apply_capped(
        &self,
        egraph: &mut EGraph<L, N>,
        matches: &[SearchMatches],
        node_limit: usize,
    ) -> (usize, bool) {
        let mut changed = 0;
        for m in matches {
            for subst in &m.substs {
                if egraph.total_number_of_nodes() >= node_limit {
                    return (changed, true);
                }
                if let Some(cond) = &self.condition {
                    if !cond(egraph, m.eclass, subst) {
                        continue;
                    }
                }
                let (_, did) = self.applier.apply_one(egraph, m.eclass, subst);
                if did {
                    changed += 1;
                }
            }
        }
        (changed, false)
    }

    /// Stages one application against a *read-only* e-graph: evaluates the
    /// side condition and, if it passes, symbolically instantiates the
    /// right-hand side into a [`StagedApp`] without mutating anything.
    /// Returns `None` when the condition rejects the match.
    ///
    /// `base` must be the e-graph's [`EGraph::id_space_size`] at staging
    /// time; see [`ApplyLog`] for the planned-id encoding. Committing the
    /// staged applications in staging order ([`EGraph::commit_staged`])
    /// reproduces the exact `add`/`union` sequence of
    /// [`Rewrite::apply_capped`] over the same matches.
    pub fn stage(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
        subst: &Subst,
        base: usize,
    ) -> Option<StagedApp<L>> {
        if let Some(cond) = &self.condition {
            if !cond(egraph, eclass, subst) {
                return None;
            }
        }
        Some(self.applier.stage(eclass, subst, base))
    }
}

/// One staged rewrite application: the right-hand side instantiated
/// *symbolically* (no e-graph mutation, no memo probes) plus the union
/// request — the `AddLog`/`UnionLog` pair a parallel apply worker emits.
///
/// Children of the staged e-nodes use the planned-id encoding described on
/// [`ApplyLog`]: an id below the log's `base` names an existing e-class
/// (taken verbatim from the substitution), an id at or above it names an
/// earlier entry of `adds` within this same application.
#[derive(Debug, Clone)]
pub struct StagedApp<L> {
    /// The instantiated right-hand-side e-nodes, in applier AST order
    /// (children before parents). Committing replays one [`EGraph::add`]
    /// per entry, in order.
    pub adds: Vec<L>,
    /// The e-class the left-hand side matched in; committing unions it
    /// with the resolved `root`.
    pub eclass: Id,
    /// The root of the instantiated right-hand side, in planned-id
    /// encoding.
    pub root: Id,
    /// The e-classes the substitution bound to the applier's variables,
    /// one entry per variable *occurrence* in the applier AST (raw ids;
    /// canonicalize at commit time). Cycle filters use these to run their
    /// leaf-reaches-root check against the evolving e-graph at commit
    /// time, exactly where the in-place apply loop ran it.
    pub bound: Vec<Id>,
}

/// A deterministic log of staged applications, ready for a single
/// sequential commit pass ([`EGraph::commit_log`]).
///
/// `base` is the e-graph's [`EGraph::id_space_size`] when the batch was
/// staged. Every id the e-graph had then is below `base`, so staged nodes
/// can mix existing ids with *planned* ids (`base + k` names the `k`-th
/// `adds` entry of the owning [`StagedApp`]) without ambiguity; the commit
/// pass resolves planned ids to the real ids [`EGraph::add`] returns.
#[derive(Debug, Clone)]
pub struct ApplyLog<L> {
    /// Id-space size at staging time; planned ids start here.
    pub base: usize,
    /// Staged applications in batch order (rule-major, then match order) —
    /// the order the sequential apply loop would have used.
    pub apps: Vec<StagedApp<L>>,
}

impl<L: Language> Pattern<L> {
    /// Symbolically instantiates the pattern as a rewrite right-hand side
    /// under `subst`, producing a [`StagedApp`] instead of mutating an
    /// e-graph — the staging half of [`Pattern::apply_one`]. `base` is the
    /// planned-id origin (see [`ApplyLog`]).
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound in `subst` (as
    /// [`Pattern::instantiate`] would).
    pub fn stage(&self, eclass: Id, subst: &Subst, base: usize) -> StagedApp<L> {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        let mut adds: Vec<L> = Vec::new();
        let mut bound: Vec<Id> = Vec::new();
        for (_, node) in self.ast.iter() {
            let id = match node {
                ENodeOrVar::Var(v) => {
                    let b = subst
                        .get(*v)
                        .unwrap_or_else(|| panic!("unbound pattern variable {v}"));
                    bound.push(b);
                    b
                }
                ENodeOrVar::ENode(n) => {
                    let planned = Id::from(base + adds.len());
                    adds.push(n.map_children(|c| ids[usize::from(c)]));
                    planned
                }
            };
            ids.push(id);
        }
        StagedApp {
            adds,
            eclass,
            root: *ids.last().expect("pattern is non-empty"),
            bound,
        }
    }
}

/// Work-chunk granularity of [`stage_matches_parallel`]: more chunks than
/// threads so workers load-balance when condition costs are skewed across
/// the batch (same rationale as the sharded search driver).
const CHUNKS_PER_THREAD: usize = 8;

/// Stages a whole gathered match batch — `(rule, match list)` pairs, in
/// apply order — against a read-only e-graph, sharding the flattened
/// candidate list across `n_threads` scoped worker threads. Each worker
/// evaluates conditions and instantiates right-hand sides into a private
/// per-chunk log; the chunk logs are then merged in chunk order (worker
/// index is irrelevant: chunks partition the flat candidate list
/// contiguously), so the returned [`ApplyLog`] is **bit-identical for any
/// thread count** — each candidate's staging is a pure function of the
/// batch-start e-graph.
///
/// `should_stop` (when given) is polled before every candidate — the
/// staging-time analogue of the in-place apply loop's per-candidate
/// wall-clock check; once it returns true, workers stop staging further
/// candidates. Like any time limit, it makes the *cut-off point*
/// nondeterministic, never the staged content before it.
///
/// Side conditions run here, against the batch-start e-graph, rather than
/// interleaved with earlier applications of the same batch. This is
/// outcome-preserving for conditions that are *batch-stable*: pure
/// functions of the matched classes whose verdict is not flipped by the
/// unions and adds of the same batch (TENSAT's shape checks qualify —
/// rules only union shape-compatible classes, so mid-batch merges never
/// change a bound class's shape data). The determinism test battery
/// (proptests plus the all-benchmarks differential suite) enforces this
/// equivalence against the in-place sequential oracle.
///
/// # Panics
///
/// Debug-asserts the e-graph is clean, like the search drivers: matches
/// are gathered on a clean e-graph, and staging reads the same snapshot.
pub fn stage_matches_parallel<L, N>(
    batch: &[(&Rewrite<L, N>, &[SearchMatches])],
    egraph: &EGraph<L, N>,
    n_threads: usize,
    should_stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> ApplyLog<L>
where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    debug_assert!(
        egraph.is_clean(),
        "stage_matches_parallel requires a clean e-graph"
    );
    let base = egraph.id_space_size();
    // Flatten to (rule index, matched class, substitution) in apply order.
    let candidates: Vec<(usize, Id, &Subst)> = batch
        .iter()
        .enumerate()
        .flat_map(|(ri, (_, matches))| {
            matches
                .iter()
                .flat_map(move |m| m.substs.iter().map(move |s| (ri, m.eclass, s)))
        })
        .collect();
    let total = candidates.len();

    let stage_range = |range: std::ops::Range<usize>, apps: &mut Vec<StagedApp<L>>| -> bool {
        for &(ri, eclass, subst) in &candidates[range] {
            if should_stop.is_some_and(|stop| stop()) {
                return false;
            }
            if let Some(app) = batch[ri].0.stage(egraph, eclass, subst, base) {
                apps.push(app);
            }
        }
        true
    };

    let n_threads = {
        // Same clamp as the search driver: never more workers than the
        // machine can run, never more than one per candidate.
        let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get() * 4);
        n_threads.min(max_workers).min(total.max(1))
    };
    if n_threads <= 1 {
        let mut apps = Vec::new();
        stage_range(0..total, &mut apps);
        return ApplyLog { base, apps };
    }

    let chunk_size = total.div_ceil(n_threads * CHUNKS_PER_THREAD).max(1);
    let n_chunks = total.div_ceil(chunk_size);
    let slots: Vec<OnceLock<Vec<StagedApp<L>>>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            let start = i * chunk_size;
            let end = (start + chunk_size).min(total);
            let mut apps = Vec::new();
            stage_range(start..end, &mut apps);
            let _ = slots[i].set(apps);
        };
        for _ in 1..n_threads {
            scope.spawn(worker);
        }
        // The calling thread is the last worker.
        worker();
    });

    // Deterministic merge: chunk order *is* flat candidate order.
    let mut apps = Vec::new();
    for slot in slots {
        apps.extend(slot.into_inner().unwrap_or_default());
    }
    ApplyLog { base, apps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{ENodeOrVar, RecExpr, Symbol, Var};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    fn pat_mul_two() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        Pattern::new(ast)
    }

    fn pat_shl_one() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let one = ast.add(ENodeOrVar::ENode(Math::Num(1)));
        ast.add(ENodeOrVar::ENode(Math::Shl([x, one])));
        Pattern::new(ast)
    }

    /// One uncapped search-then-apply pass, without a rebuild.
    fn run(rw: &Rewrite<Math, ()>, eg: &mut EGraph<Math, ()>) -> usize {
        let matches = rw.search(eg);
        rw.apply_capped(eg, &matches, usize::MAX).0
    }

    #[test]
    fn unconditional_rewrite_fires() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let n = run(&rw, &mut eg);
        assert_eq!(n, 1);
        eg.rebuild();
        let one = eg.lookup(&Math::Num(1)).unwrap();
        let shl = eg.lookup(&Math::Shl([a, one])).unwrap();
        assert_eq!(eg.find(shl), eg.find(mul));
        // Running again changes nothing (already equal).
        assert_eq!(run(&rw, &mut eg), 0);
    }

    #[test]
    fn conditional_rewrite_respects_condition() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new_conditional(
            "never",
            pat_mul_two(),
            pat_shl_one(),
            Arc::new(|_, _, _| false),
        );
        assert_eq!(run(&rw, &mut eg), 0);
    }

    #[test]
    #[should_panic]
    fn rhs_with_unbound_var_panics() {
        let mut rhs = RecExpr::default();
        rhs.add(ENodeOrVar::Var(Var::new("zzz")));
        let _rw: Rewrite<Math, ()> = Rewrite::new("bad", pat_mul_two(), Pattern::new(rhs));
    }

    #[test]
    fn debug_is_informative() {
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let dbg = format!("{rw:?}");
        assert!(dbg.contains("mul2-to-shl"));
        assert!(dbg.contains("?x"));
    }
}
