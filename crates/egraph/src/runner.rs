//! The [`Runner`]: drives equality saturation until saturation or a limit
//! is hit, recording per-iteration statistics.

use crate::machine::{search_all, search_one};
use crate::rewrite::stage_matches_parallel;
use crate::{Analysis, EGraph, Language, RecExpr, Rewrite, SearchMatches};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Reads the `TENSAT_SEARCH_THREADS` environment variable: the number of
/// threads the e-matching search phase should use. Returns `None` when the
/// variable is unset or does not parse to a positive integer.
///
/// [`Runner`] consults this at construction (so CI can force the parallel
/// search path without code changes), as does
/// `tensat_core::ExplorationConfig`'s default.
pub fn search_threads_from_env() -> Option<usize> {
    parse_thread_count(&std::env::var("TENSAT_SEARCH_THREADS").ok()?)
}

/// Reads the `TENSAT_APPLY_THREADS` environment variable: the number of
/// threads the staged apply phase ([`stage_matches_parallel`]) should use.
/// Returns `None` when the variable is unset or does not parse to a
/// positive integer — in which case the apply phase follows the search
/// thread setting.
///
/// Consulted at [`Runner`] construction and by
/// `tensat_core::ExplorationConfig`'s default, like
/// [`search_threads_from_env`].
pub fn apply_threads_from_env() -> Option<usize> {
    parse_thread_count(&std::env::var("TENSAT_APPLY_THREADS").ok()?)
}

fn parse_thread_count(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n >= 1)
}

/// Why the runner stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rewrite changed the e-graph: every represented rewriting has been
    /// found (the fixpoint the paper calls *saturation*).
    Saturated,
    /// The configured iteration limit was reached.
    IterationLimit(usize),
    /// The configured e-node limit was reached.
    NodeLimit(usize),
    /// The configured wall-clock time limit was reached.
    TimeLimit(Duration),
}

/// Statistics for one exploration iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Number of rewrite applications that changed the e-graph.
    pub applied: usize,
    /// Total matches found (before conditions and deduplication by union).
    pub total_matches: usize,
    /// E-nodes in the e-graph after this iteration.
    pub egraph_nodes: usize,
    /// E-classes in the e-graph after this iteration.
    pub egraph_classes: usize,
    /// Time spent searching for matches.
    pub search_time: Duration,
    /// Time spent applying matches.
    pub apply_time: Duration,
    /// Time spent rebuilding.
    pub rebuild_time: Duration,
}

/// Configuration and state for running equality saturation.
///
/// Mirrors egg's `Runner`: construct, configure limits with the builder
/// methods, seed the e-graph with expressions, then call [`Runner::run`].
///
/// # Examples
///
/// ```
/// use tensat_egraph::{Runner, Rewrite, Pattern, RecExpr, ENodeOrVar, Var, Symbol, AstSize, Extractor};
/// use tensat_egraph::doctest_lang::SimpleMath as Math;
/// // (* ?x 2) => (<< ?x 1)
/// let mut lhs = RecExpr::default();
/// let x = lhs.add(ENodeOrVar::Var(Var::new("x")));
/// let two = lhs.add(ENodeOrVar::ENode(Math::Num(2)));
/// lhs.add(ENodeOrVar::ENode(Math::Mul([x, two])));
/// let mut rhs = RecExpr::default();
/// let x2 = rhs.add(ENodeOrVar::Var(Var::new("x")));
/// let one = rhs.add(ENodeOrVar::ENode(Math::Num(1)));
/// rhs.add(ENodeOrVar::ENode(Math::Shl([x2, one])));
/// let rw: Rewrite<Math, ()> = Rewrite::new("strength", Pattern::new(lhs), Pattern::new(rhs));
///
/// let mut start = RecExpr::default();
/// let a = start.add(Math::Sym(Symbol::new("a")));
/// let t = start.add(Math::Num(2));
/// start.add(Math::Mul([a, t]));
///
/// let mut runner = Runner::new(()).with_expr(&start);
/// runner.run(&[rw]);
/// assert!(runner.stop_reason.is_some());
/// ```
pub struct Runner<L: Language, N: Analysis<L>> {
    /// The e-graph being grown.
    pub egraph: EGraph<L, N>,
    /// Ids of the root classes of the seeded expressions, in seeding order.
    pub roots: Vec<crate::Id>,
    /// Per-iteration statistics, filled in by [`Runner::run`].
    pub iterations: Vec<Iteration>,
    /// Why the run stopped (set by [`Runner::run`]).
    pub stop_reason: Option<StopReason>,
    iter_limit: usize,
    node_limit: usize,
    time_limit: Duration,
    incremental: bool,
    search_threads: usize,
    apply_threads: Option<usize>,
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Creates a runner with an empty e-graph and default limits
    /// (30 iterations, 10 000 e-nodes, 5 seconds). The search thread count
    /// defaults to the `TENSAT_SEARCH_THREADS` environment variable if set
    /// (see [`search_threads_from_env`]), otherwise 1 (sequential); the
    /// apply thread count defaults to `TENSAT_APPLY_THREADS` if set
    /// ([`apply_threads_from_env`]), otherwise it follows the search
    /// setting.
    pub fn new(analysis: N) -> Self {
        Self::with_egraph(EGraph::new(analysis))
    }

    /// Wraps an already-populated e-graph (defaults as for [`Runner::new`]).
    pub fn with_egraph(egraph: EGraph<L, N>) -> Self {
        Runner {
            egraph,
            roots: vec![],
            iterations: vec![],
            stop_reason: None,
            iter_limit: 30,
            node_limit: 10_000,
            time_limit: Duration::from_secs(5),
            incremental: false,
            search_threads: search_threads_from_env().unwrap_or(1),
            apply_threads: apply_threads_from_env(),
        }
    }

    /// Adds an expression to the e-graph and records its root.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let root = self.egraph.add_expr(expr);
        self.egraph.rebuild();
        self.roots.push(root);
        self
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the wall-clock time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Enables incremental search: after the first iteration, each rewrite
    /// only searches e-classes touched since the previous iteration's
    /// watermark (see [`crate::search_one`]). Matches that
    /// already existed were applied (or had their condition evaluated) in
    /// an earlier iteration and are not revisited.
    ///
    /// # Contract
    ///
    /// This is outcome-preserving for unconditional rewrites, and for
    /// conditional rewrites whose condition depends only on the matched
    /// e-classes (their nodes and analysis data): any event that can flip
    /// such a condition also touches those classes, so the match is
    /// re-surfaced. A condition reading *unrelated* global state (e.g.
    /// `egraph.total_number_of_nodes()`, wall-clock time) may flip without
    /// touching the match's classes — under incremental search such a
    /// rewrite can fire later than in a full-search run, or not at all.
    /// Keep the default (full search) for rewrites with such conditions.
    pub fn with_incremental_search(mut self, enabled: bool) -> Self {
        self.incremental = enabled;
        self
    }

    /// Sets the number of threads used by the e-matching search phase.
    /// `1` (the default unless `TENSAT_SEARCH_THREADS` is set) runs the
    /// sequential driver; larger values shard candidate classes across
    /// scoped threads via [`crate::search_all`] with bit-identical
    /// results, so this only changes wall-clock time, never the outcome.
    pub fn with_search_threads(mut self, n_threads: usize) -> Self {
        self.search_threads = n_threads.max(1);
        self
    }

    /// Sets the number of threads used by the staged apply phase of
    /// [`Runner::run`]. Matches are staged against the read-only batch-start
    /// e-graph across scoped threads ([`stage_matches_parallel`]) and
    /// committed sequentially in deterministic order, so — like the search
    /// setting — this only changes wall-clock time, never the outcome.
    /// Unset (the default, unless `TENSAT_APPLY_THREADS` is in the
    /// environment) follows the search thread count.
    pub fn with_apply_threads(mut self, n_threads: usize) -> Self {
        self.apply_threads = Some(n_threads.max(1));
        self
    }

    /// Forks this runner: a fresh runner over a [`EGraph::snapshot`] of the
    /// e-graph with the same roots and limits but no recorded history.
    /// This is the snapshot/replay primitive guided exploration strategies
    /// use to expand several candidate states from one parent without the
    /// candidates observing each other's mutations.
    pub fn fork(&self) -> Self
    where
        EGraph<L, N>: Clone,
    {
        Runner {
            egraph: self.egraph.snapshot(),
            roots: self.roots.clone(),
            iterations: vec![],
            stop_reason: None,
            iter_limit: self.iter_limit,
            node_limit: self.node_limit,
            time_limit: self.time_limit,
            incremental: self.incremental,
            search_threads: self.search_threads,
            apply_threads: self.apply_threads,
        }
    }

    /// Extracts the best term for the first seeded root with the tree-greedy
    /// [`crate::Extractor`]. Panics if no expression was seeded.
    pub fn extract_tree<CF: crate::CostFunction<L>>(
        &self,
        cost_fn: CF,
    ) -> Option<(CF::Cost, RecExpr<L>)> {
        let root = *self
            .roots
            .first()
            .expect("Runner::extract_tree needs a seeded root");
        crate::Extractor::new(&self.egraph, cost_fn).find_best(root)
    }

    /// Extracts the best DAG for the first seeded root with the global
    /// greedy [`crate::DagExtractor`]. Panics if no expression was seeded.
    pub fn extract_dag<DF: crate::DagCostFunction<L>>(
        &self,
        cost_fn: DF,
    ) -> Option<(DF::Cost, RecExpr<L>)> {
        let root = *self
            .roots
            .first()
            .expect("Runner::extract_dag needs a seeded root");
        crate::DagExtractor::new(&self.egraph, cost_fn).find_best(root)
    }
}

impl<L, N> Runner<L, N>
where
    L: Language + Send + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    /// Runs equality saturation with the given rewrites until saturation or
    /// a limit is reached. Returns the stop reason.
    ///
    /// Both phases of each iteration can use threads: search shards
    /// candidate classes ([`Runner::with_search_threads`]) and apply stages
    /// the match batch into per-worker logs against the read-only e-graph
    /// ([`Runner::with_apply_threads`], via [`stage_matches_parallel`])
    /// before one deterministic sequential commit pass
    /// ([`EGraph::commit_log`]) and the usual worklist rebuild. Both are
    /// bit-identical to their sequential counterparts for any thread count.
    ///
    /// (The `Sync` bounds let those phases shard the read-only e-graph
    /// across threads; every [`Language`] and [`Analysis`] in this
    /// workspace is plain data and satisfies them. A non-`Sync` language or
    /// analysis can still saturate via [`Runner::run_sequential`].)
    pub fn run(&mut self, rewrites: &[Rewrite<L, N>]) -> StopReason {
        let n_threads = self.search_threads;
        let apply_threads = self.apply_threads.unwrap_or(n_threads);
        self.run_with_phases(
            rewrites,
            |egraph, rewrites, watermark| {
                // The batch driver dispatches itself: with one thread it is
                // the per-pattern sequential search verbatim (and a
                // watermark of 0 is a full search, so `None` needs no
                // special case). Each rewrite contributes its guarded
                // program when it carries analysis guards, its plain
                // pattern program otherwise.
                let queries: Vec<_> = rewrites.iter().map(|rw| rw.searcher_query()).collect();
                search_all(&queries, egraph, watermark.unwrap_or(0), n_threads)
            },
            |egraph, rewrites, all_matches, node_limit| {
                let batch: Vec<_> = rewrites
                    .iter()
                    .zip(all_matches.iter().map(Vec::as_slice))
                    .collect();
                let log = stage_matches_parallel(&batch, egraph, apply_threads, None);
                egraph.commit_log(&log, node_limit)
            },
        )
    }
}

/// One full-batch sequential search: the pre-parallel search phase.
fn sequential_search<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    rewrites: &[Rewrite<L, N>],
    watermark: Option<u64>,
) -> Vec<Vec<crate::SearchMatches>> {
    rewrites
        .iter()
        .map(|rw| search_one(rw.searcher_query(), egraph, watermark.unwrap_or(0)))
        .collect()
}

/// One in-place sequential apply pass: the pre-staging apply phase, kept
/// as the non-`Sync` fallback (and, via the test battery, the oracle the
/// staged path is proven bit-identical against).
fn sequential_apply<L: Language, N: Analysis<L>>(
    egraph: &mut EGraph<L, N>,
    rewrites: &[Rewrite<L, N>],
    all_matches: &[Vec<SearchMatches>],
    node_limit: usize,
) -> (usize, bool) {
    let mut applied = 0;
    for (rw, matches) in rewrites.iter().zip(all_matches) {
        let (n, hit) = rw.apply_capped(egraph, matches, node_limit);
        applied += n;
        if hit {
            return (applied, true);
        }
    }
    (applied, false)
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Like [`Runner::run`] with one search/apply thread, but without the
    /// `Sync` bounds: languages or analyses containing non-`Sync` data
    /// (e.g. `Rc` caches) can still run equality saturation — they just
    /// cannot shard the search or stage the apply phase across threads.
    /// [`Runner::with_search_threads`] and [`Runner::with_apply_threads`]
    /// are ignored here.
    pub fn run_sequential(&mut self, rewrites: &[Rewrite<L, N>]) -> StopReason {
        self.run_with_phases(rewrites, sequential_search, sequential_apply)
    }

    /// The saturation loop, parameterized over the search and apply phases
    /// (the two parts that need `Sync` to parallelize). The apply callback
    /// consumes the whole match batch and returns `(effective applications,
    /// hit node limit)`, with the limit checked per application.
    fn run_with_phases(
        &mut self,
        rewrites: &[Rewrite<L, N>],
        search: impl Fn(&EGraph<L, N>, &[Rewrite<L, N>], Option<u64>) -> Vec<Vec<SearchMatches>>,
        apply: impl Fn(
            &mut EGraph<L, N>,
            &[Rewrite<L, N>],
            &[Vec<SearchMatches>],
            usize,
        ) -> (usize, bool),
    ) -> StopReason {
        let start = Instant::now();
        self.egraph.rebuild();
        let mut watermark: Option<u64> = None;
        let reason = loop {
            if self.iterations.len() >= self.iter_limit {
                break StopReason::IterationLimit(self.iter_limit);
            }
            if self.egraph.total_number_of_nodes() >= self.node_limit {
                break StopReason::NodeLimit(self.node_limit);
            }
            if start.elapsed() >= self.time_limit {
                break StopReason::TimeLimit(self.time_limit);
            }

            let search_start = Instant::now();
            let all_matches = search(&self.egraph, rewrites, watermark);
            let search_time = search_start.elapsed();
            let total_matches: usize = all_matches
                .iter()
                .flat_map(|ms| ms.iter().map(|m| m.substs.len()))
                .sum();
            if self.incremental {
                // Snapshot before this iteration mutates anything: the next
                // search revisits exactly the classes touched from here on.
                watermark = Some(self.egraph.watermark());
            }

            let nodes_before = self.egraph.total_number_of_nodes();
            let unions_before = self.egraph.union_count();

            let apply_start = Instant::now();
            let (applied, hit_node_limit) =
                apply(&mut self.egraph, rewrites, &all_matches, self.node_limit);
            let apply_time = apply_start.elapsed();

            let rebuild_start = Instant::now();
            self.egraph.rebuild();
            let rebuild_time = rebuild_start.elapsed();

            self.iterations.push(Iteration {
                applied,
                total_matches,
                egraph_nodes: self.egraph.total_number_of_nodes(),
                egraph_classes: self.egraph.number_of_classes(),
                search_time,
                apply_time,
                rebuild_time,
            });

            if hit_node_limit {
                break StopReason::NodeLimit(self.node_limit);
            }
            let changed = self.egraph.total_number_of_nodes() != nodes_before
                || self.egraph.union_count() != unions_before;
            if !changed {
                break StopReason::Saturated;
            }
        };
        self.stop_reason = Some(reason.clone());
        reason
    }
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Total time spent across recorded iterations.
    pub fn total_time(&self) -> Duration {
        self.iterations
            .iter()
            .map(|i| i.search_time + i.apply_time + i.rebuild_time)
            .sum()
    }
}

impl<L: Language, N: Analysis<L>> Debug for Runner<L, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{AstSize, ENodeOrVar, Extractor, Pattern, Symbol, Var};

    fn var(v: &str) -> ENodeOrVar<Math> {
        ENodeOrVar::Var(Var::new(v))
    }
    fn node(n: Math) -> ENodeOrVar<Math> {
        ENodeOrVar::ENode(n)
    }

    fn pattern(build: impl FnOnce(&mut RecExpr<ENodeOrVar<Math>>)) -> Pattern<Math> {
        let mut ast = RecExpr::default();
        build(&mut ast);
        Pattern::new(ast)
    }

    /// The rules needed to prove (/ (* a 2) 2) == a from the paper's §2
    /// running example.
    fn rules() -> Vec<Rewrite<Math, ()>> {
        vec![
            // (* ?x 2) => (<< ?x 1)
            Rewrite::new(
                "strength-reduce",
                pattern(|p| {
                    let x = p.add(var("x"));
                    let two = p.add(node(Math::Num(2)));
                    p.add(node(Math::Mul([x, two])));
                }),
                pattern(|p| {
                    let x = p.add(var("x"));
                    let one = p.add(node(Math::Num(1)));
                    p.add(node(Math::Shl([x, one])));
                }),
            ),
            // (/ (* ?x ?y) ?y) => ?x
            Rewrite::new(
                "cancel-div",
                pattern(|p| {
                    let x = p.add(var("x"));
                    let y = p.add(var("y"));
                    let m = p.add(node(Math::Mul([x, y])));
                    let y2 = p.add(var("y"));
                    p.add(node(Math::Div([m, y2])));
                }),
                pattern(|p| {
                    p.add(var("x"));
                }),
            ),
        ]
    }

    fn start_expr() -> RecExpr<Math> {
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let two = e.add(Math::Num(2));
        let m = e.add(Math::Mul([a, two]));
        e.add(Math::Div([m, two]));
        e
    }

    #[test]
    fn proves_paper_motivating_example() {
        // Even after strength reduction "hides" the (* a 2), the e-graph
        // still proves (/ (* a 2) 2) == a because nothing is destroyed.
        let mut runner = Runner::new(()).with_expr(&start_expr());
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::Saturated);
        let root = runner.roots[0];
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(root).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
    }

    #[test]
    fn respects_iteration_limit() {
        let mut runner = Runner::new(()).with_expr(&start_expr()).with_iter_limit(0);
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::IterationLimit(0));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn respects_node_limit() {
        let mut runner = Runner::new(()).with_expr(&start_expr()).with_node_limit(1);
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::NodeLimit(1));
    }

    #[test]
    fn respects_time_limit() {
        let mut runner = Runner::new(())
            .with_expr(&start_expr())
            .with_time_limit(Duration::from_secs(0));
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::TimeLimit(Duration::from_secs(0)));
    }

    #[test]
    fn iteration_stats_are_recorded() {
        let mut runner = Runner::new(()).with_expr(&start_expr());
        runner.run(&rules());
        assert!(!runner.iterations.is_empty());
        let first = &runner.iterations[0];
        assert!(first.applied > 0);
        assert!(first.egraph_nodes >= 4);
        assert!(first.egraph_classes >= 3);
        // A real run does measurable search/apply/rebuild work, so the
        // recorded per-phase times must actually be populated.
        assert!(runner.total_time() > Duration::ZERO);
    }

    /// The node limit must bound e-graph growth *within* an iteration, not
    /// only between iterations: with many matches queued, the old
    /// once-per-iteration check overshot `node_limit` by the whole match
    /// batch. The capped apply loop stops within one application's worth of
    /// nodes (here the applier `(<< ?x 1)` adds at most 2 per application).
    #[test]
    fn node_limit_overshoot_is_bounded() {
        let mut e = RecExpr::default();
        let two = e.add(Math::Num(2));
        let mut outs = vec![];
        for i in 0..50 {
            let s = e.add(Math::Sym(Symbol::new(format!("v{i}"))));
            outs.push(e.add(Math::Mul([s, two])));
        }
        // Chain the outputs together so the expression is single-rooted.
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = e.add(Math::Add([acc, o]));
        }

        let strength: Rewrite<Math, ()> = Rewrite::new(
            "strength-reduce",
            pattern(|p| {
                let x = p.add(var("x"));
                let two = p.add(node(Math::Num(2)));
                p.add(node(Math::Mul([x, two])));
            }),
            pattern(|p| {
                let x = p.add(var("x"));
                let one = p.add(node(Math::Num(1)));
                p.add(node(Math::Shl([x, one])));
            }),
        );

        let runner = Runner::new(()).with_expr(&e);
        let limit = runner.egraph.total_number_of_nodes() + 5;
        let mut runner = Runner::with_egraph(runner.egraph).with_node_limit(limit);
        let reason = runner.run(&[strength]);
        assert_eq!(reason, StopReason::NodeLimit(limit));
        // 50 pending matches would previously have overshot by ~50+ nodes;
        // now at most one application (2 nodes) past the limit.
        assert!(
            runner.egraph.total_number_of_nodes() <= limit + 2,
            "overshoot too large: {} nodes vs limit {}",
            runner.egraph.total_number_of_nodes(),
            limit
        );
        // The partial iteration is still recorded with populated stats.
        assert_eq!(runner.iterations.len(), 1);
    }

    /// Incremental (watermark-restricted) search must reach the same
    /// saturation result as full search on the paper's running example.
    #[test]
    fn incremental_search_reaches_same_result() {
        let mut runner = Runner::new(())
            .with_expr(&start_expr())
            .with_incremental_search(true);
        let reason = runner.run(&rules());
        assert_eq!(reason, StopReason::Saturated);
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(runner.roots[0]).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "a");
    }

    /// Parallel search is bit-identical to sequential search, so a run with
    /// threads must reach the same fixpoint via the same iteration history.
    #[test]
    fn parallel_search_run_matches_sequential_run() {
        let mut sequential = Runner::new(())
            .with_expr(&start_expr())
            .with_search_threads(1);
        let mut parallel = Runner::new(())
            .with_expr(&start_expr())
            .with_search_threads(4);
        assert_eq!(sequential.run(&rules()), StopReason::Saturated);
        assert_eq!(parallel.run(&rules()), StopReason::Saturated);
        assert_eq!(sequential.iterations.len(), parallel.iterations.len());
        for (s, p) in sequential.iterations.iter().zip(&parallel.iterations) {
            assert_eq!(s.applied, p.applied);
            assert_eq!(s.total_matches, p.total_matches);
            assert_eq!(s.egraph_nodes, p.egraph_nodes);
            assert_eq!(s.egraph_classes, p.egraph_classes);
        }
        let ex = Extractor::new(&parallel.egraph, AstSize);
        let (cost, best) = ex.find_best(parallel.roots[0]).unwrap();
        assert_eq!((cost, best.to_string().as_str()), (1, "a"));
    }

    /// Threads compose with watermark-restricted incremental search: the
    /// parallel driver applies the same touched-class filter.
    #[test]
    fn parallel_incremental_search_reaches_same_result() {
        let mut runner = Runner::new(())
            .with_expr(&start_expr())
            .with_incremental_search(true)
            .with_search_threads(3);
        assert_eq!(runner.run(&rules()), StopReason::Saturated);
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(runner.roots[0]).unwrap();
        assert_eq!((cost, best.to_string().as_str()), (1, "a"));
    }

    #[test]
    fn thread_count_env_parsing() {
        // Exercise the parser (shared by TENSAT_SEARCH_THREADS and
        // TENSAT_APPLY_THREADS) directly rather than via `set_var` (tests
        // run concurrently; mutating the environment would race with other
        // `Runner::new` calls reading it).
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 16\n"), Some(16));
        assert_eq!(parse_thread_count("0"), None, "0 threads is rejected");
        assert_eq!(parse_thread_count("auto"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    /// The staged apply path must be bit-identical to the in-place
    /// sequential apply loop for any apply thread count: identical
    /// per-iteration stats and identical extraction results.
    #[test]
    fn staged_parallel_apply_matches_sequential_apply() {
        let mut baseline = Runner::new(()).with_expr(&start_expr());
        assert_eq!(baseline.run_sequential(&rules()), StopReason::Saturated);
        for threads in [1, 4] {
            let mut staged = Runner::new(())
                .with_expr(&start_expr())
                .with_apply_threads(threads);
            assert_eq!(staged.run(&rules()), StopReason::Saturated);
            assert_eq!(baseline.iterations.len(), staged.iterations.len());
            for (s, p) in baseline.iterations.iter().zip(&staged.iterations) {
                assert_eq!(s.applied, p.applied, "threads={threads}");
                assert_eq!(s.total_matches, p.total_matches, "threads={threads}");
                assert_eq!(s.egraph_nodes, p.egraph_nodes, "threads={threads}");
                assert_eq!(s.egraph_classes, p.egraph_classes, "threads={threads}");
            }
            let ex = Extractor::new(&staged.egraph, AstSize);
            let (cost, best) = ex.find_best(staged.roots[0]).unwrap();
            assert_eq!((cost, best.to_string().as_str()), (1, "a"));
        }
    }

    /// `run_sequential` must keep working for non-`Sync` analyses (the
    /// `Sync` bounds on `run` exist only for the sharded search phase).
    #[test]
    fn non_sync_analysis_can_run_sequentially() {
        use crate::DidMerge;
        use std::rc::Rc;

        /// Analysis whose data is an `Rc` — deliberately not `Sync`.
        #[derive(Clone, Default)]
        struct RcAnalysis;
        impl Analysis<Math> for RcAnalysis {
            type Data = Rc<usize>;
            fn make(_egraph: &EGraph<Math, Self>, enode: &Math) -> Self::Data {
                Rc::new(enode.children().len())
            }
            fn merge(&mut self, _to: &mut Self::Data, _from: Self::Data) -> DidMerge {
                DidMerge(false, false)
            }
        }

        let comm: Rewrite<Math, RcAnalysis> = Rewrite::new(
            "commute-add",
            pattern(|p| {
                let x = p.add(var("x"));
                let y = p.add(var("y"));
                p.add(node(Math::Add([x, y])));
            }),
            pattern(|p| {
                let y = p.add(var("y"));
                let x = p.add(var("x"));
                p.add(node(Math::Add([y, x])));
            }),
        );
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let b = e.add(Math::Sym(Symbol::new("b")));
        e.add(Math::Add([a, b]));
        let mut runner = Runner::new(RcAnalysis).with_expr(&e);
        assert_eq!(runner.run_sequential(&[comm]), StopReason::Saturated);
    }

    #[test]
    fn fork_isolates_the_parent_runner() {
        // Snapshot/replay primitive for guided exploration: a forked
        // runner can grow independently without the parent observing any
        // change, while inheriting roots and limits.
        let comm: Rewrite<Math, ()> = Rewrite::new(
            "commute-add",
            pattern(|p| {
                let x = p.add(var("x"));
                let y = p.add(var("y"));
                p.add(node(Math::Add([x, y])));
            }),
            pattern(|p| {
                let y = p.add(var("y"));
                let x = p.add(var("x"));
                p.add(node(Math::Add([y, x])));
            }),
        );
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let b = e.add(Math::Sym(Symbol::new("b")));
        e.add(Math::Add([a, b]));
        let runner = Runner::new(()).with_expr(&e).with_iter_limit(4);
        let parent_nodes = runner.egraph.total_number_of_nodes();

        let mut child = runner.fork();
        assert_eq!(child.roots, runner.roots);
        assert_eq!(child.egraph.total_number_of_nodes(), parent_nodes);
        assert_eq!(child.run(&[comm]), StopReason::Saturated);

        // The child saturated and grew; the parent is untouched.
        assert!(child.egraph.total_number_of_nodes() > parent_nodes);
        assert_eq!(runner.egraph.total_number_of_nodes(), parent_nodes);
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn commutativity_saturates() {
        // x + y => y + x on a tiny graph saturates quickly rather than
        // looping forever.
        let comm: Rewrite<Math, ()> = Rewrite::new(
            "commute-add",
            pattern(|p| {
                let x = p.add(var("x"));
                let y = p.add(var("y"));
                p.add(node(Math::Add([x, y])));
            }),
            pattern(|p| {
                let y = p.add(var("y"));
                let x = p.add(var("x"));
                p.add(node(Math::Add([y, x])));
            }),
        );
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let b = e.add(Math::Sym(Symbol::new("b")));
        e.add(Math::Add([a, b]));
        let mut runner = Runner::new(()).with_expr(&e);
        let reason = runner.run(&[comm]);
        assert_eq!(reason, StopReason::Saturated);
        assert!(runner.iterations.len() <= 3);
    }
}
