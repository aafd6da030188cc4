//! The exploration phase (paper §4) behind one seam: an
//! [`ExplorationStrategy`] trait over a shared [`ExplorationContext`]
//! holding the compiled single/multi rule programs, guard tables, cycle
//! filter, and budget accounting — exactly parallel to the extraction
//! crate's [`ExtractionStrategy`](crate::ExtractionStrategy) seam.
//!
//! Three strategies ship through the seam:
//!
//! * [`Saturate`] — Algorithm 1's saturate-all loop, bit-identical to the
//!   pre-seam monolithic `explore()` (its control flow kept verbatim in
//!   [`legacy`] as the differential oracle).
//! * [`Guided`] — a deterministic beam search (MCTS-lite) treating rule
//!   batches as actions, scoring candidate e-graph states by greedy-DAG
//!   extracted cost plus a node-growth penalty, and expanding only the
//!   top-k states via e-graph snapshot/replay. It enforces a *hard* node
//!   budget, so graphs whose saturation blows past `node_limit` stay
//!   optimizable with bounded memory.
//! * [`TasoBacktracking`] — the TASO-style sequential backtracking
//!   baseline (`tensat-taso`) run through the same seam, unioning its best
//!   trajectory graph back into the e-graph.
//!
//! [`explore`] dispatches on [`ExplorationConfig::mode`]
//! ([`ExplorationMode`]), overridable at runtime via the `TENSAT_EXPLORER`
//! environment variable (mirroring `TENSAT_EXTRACTOR`).

mod context;
mod guided;
pub mod legacy;
mod saturate;
mod taso;

pub use context::ExplorationContext;
pub use guided::{Guided, GuidedConfig};
pub use saturate::Saturate;
pub use taso::{TasoBacktracking, TasoConfig};

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;
use tensat_egraph::{ENodeOrVar, GuardedProgram, Id, Pattern, RecExpr, Subst, Var};
use tensat_ir::{CostModel, DataKind, TensorData, TensorEGraph, TensorLang};
use tensat_rules::{guard_for_kinds, MultiPatternRule, TensorRewrite};

/// The paper's exploration defaults (§6.1): the single source of truth
/// shared by [`ExplorationConfig::default`] and
/// [`OptimizerConfig::default`](crate::OptimizerConfig::default), so the
/// two configurations cannot silently drift.
pub mod defaults {
    use std::time::Duration;

    /// Iterations in which multi-pattern rules are applied (`k_multi`).
    pub const K_MULTI: usize = 1;
    /// Total iteration limit (`k_max`).
    pub const MAX_ITER: usize = 15;
    /// E-node limit (`N_max`).
    pub const NODE_LIMIT: usize = 50_000;
    /// Wall-clock limit for the whole exploration phase.
    pub const TIME_LIMIT: Duration = Duration::from_secs(60);
}

/// Which cycle-filtering algorithm to run during exploration (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleFilter {
    /// No filtering: the e-graph may contain cycles, and ILP extraction
    /// must use the cycle constraints.
    Off,
    /// Vanilla filtering: before every candidate application, recompute
    /// reachability over the whole e-graph (complexity `O(n_m · N)` per
    /// iteration).
    Vanilla,
    /// Efficient filtering: a descendants map computed once per iteration
    /// pre-filters candidates; a DFS post-processing pass resolves the few
    /// cycles that slip through (Algorithm 2).
    Efficient,
}

/// Which exploration strategy grows the e-graph — the exploration
/// counterpart of [`ExtractionMode`](crate::ExtractionMode), overridable
/// at runtime via the `TENSAT_EXPLORER` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplorationMode {
    /// The saturate-all loop (Algorithm 1): apply every rule everywhere,
    /// every iteration. TENSAT's default configuration.
    Saturate,
    /// Guided beam search over rule-batch actions under a hard node
    /// budget, scored by greedy-DAG extracted cost (see [`Guided`]).
    Guided,
    /// The TASO-style sequential backtracking baseline (see
    /// [`TasoBacktracking`]).
    Taso,
}

impl ExplorationMode {
    /// Parses a strategy name as accepted by the `TENSAT_EXPLORER`
    /// environment variable: `saturate` / `saturation` / `full`,
    /// `guided` / `beam` / `mcts`, or `taso` / `backtracking`
    /// (case-insensitive).
    pub fn from_name(name: &str) -> Option<ExplorationMode> {
        match name.to_ascii_lowercase().as_str() {
            "saturate" | "saturation" | "full" => Some(ExplorationMode::Saturate),
            "guided" | "beam" | "mcts" => Some(ExplorationMode::Guided),
            "taso" | "backtracking" => Some(ExplorationMode::Taso),
            _ => None,
        }
    }

    /// The exploration mode requested via the `TENSAT_EXPLORER`
    /// environment variable, if set to a recognized name (surrounding
    /// whitespace is ignored). Read uncached (like `TENSAT_EXTRACTOR` and
    /// `TENSAT_SEARCH_THREADS`) so tests and harnesses can vary it per run.
    pub fn from_env() -> Option<ExplorationMode> {
        std::env::var("TENSAT_EXPLORER")
            .ok()
            .and_then(|v| ExplorationMode::from_name(v.trim()))
    }

    /// The strategy name this mode resolves to at the exploration seam.
    pub fn strategy_name(&self) -> &'static str {
        match self {
            ExplorationMode::Saturate => "saturate",
            ExplorationMode::Guided => "guided",
            ExplorationMode::Taso => "taso",
        }
    }

    /// The boxed strategy this mode dispatches to.
    pub fn strategy(&self) -> Box<dyn ExplorationStrategy> {
        match self {
            ExplorationMode::Saturate => Box::new(Saturate),
            ExplorationMode::Guided => Box::new(Guided),
            ExplorationMode::Taso => Box::new(TasoBacktracking),
        }
    }
}

/// Limits and options for the exploration phase.
#[derive(Debug, Clone)]
pub struct ExplorationConfig {
    /// Iterations in which multi-pattern rules are applied (`k_multi`).
    pub k_multi: usize,
    /// Total iteration limit (`k_max`).
    pub max_iter: usize,
    /// E-node limit (`N_max`). [`Saturate`] treats it as a soft
    /// stop-growing threshold (one batch may overshoot slightly);
    /// [`Guided`] enforces it as a hard budget no candidate state ever
    /// exceeds.
    pub node_limit: usize,
    /// Wall-clock limit for the whole exploration phase.
    pub time_limit: Duration,
    /// The cycle-filtering algorithm.
    pub cycle_filter: CycleFilter,
    /// Threads used by the e-matching search phase. `1` runs the sequential
    /// driver (exact pre-parallel behavior); larger values shard candidate
    /// classes across scoped threads with bit-identical match lists, so
    /// this only affects wall-clock time.
    pub search_threads: usize,
    /// Threads used by the staged apply phase: single-pattern match batches
    /// are staged against the read-only iteration-start e-graph across
    /// scoped threads ([`tensat_egraph::stage_matches_parallel`]) and
    /// committed in one deterministic sequential pass, so — like
    /// `search_threads` — this only affects wall-clock time, never the
    /// outcome. `None` (the default, unless `TENSAT_APPLY_THREADS` is set)
    /// follows `search_threads`; see
    /// [`ExplorationConfig::resolved_apply_threads`].
    pub apply_threads: Option<usize>,
    /// Which exploration strategy [`explore`] dispatches to.
    pub mode: ExplorationMode,
    /// Cost model used by strategies that score candidate states
    /// ([`Guided`]'s rollout evaluator, [`TasoBacktracking`]'s search);
    /// [`Saturate`] never consults it.
    pub cost_model: CostModel,
    /// Parameters of the [`Guided`] strategy (used when `mode` is
    /// [`ExplorationMode::Guided`]).
    pub guided: GuidedConfig,
    /// Parameters of the [`TasoBacktracking`] baseline (used when `mode`
    /// is [`ExplorationMode::Taso`]).
    pub taso: TasoConfig,
}

impl Default for ExplorationConfig {
    /// The paper's defaults ([`defaults`]): `k_multi = 1`, `k_max = 15`,
    /// `N_max = 50 000`, saturate-all exploration (unless a
    /// `TENSAT_EXPLORER` override is set), plus search parallelism from
    /// [`default_search_threads`].
    fn default() -> Self {
        ExplorationConfig {
            k_multi: defaults::K_MULTI,
            max_iter: defaults::MAX_ITER,
            node_limit: defaults::NODE_LIMIT,
            time_limit: defaults::TIME_LIMIT,
            cycle_filter: CycleFilter::Efficient,
            search_threads: default_search_threads(),
            apply_threads: apply_threads_from_env(),
            mode: ExplorationMode::from_env().unwrap_or(ExplorationMode::Saturate),
            cost_model: CostModel::default(),
            guided: GuidedConfig::default(),
            taso: TasoConfig::default(),
        }
    }
}

impl ExplorationConfig {
    /// The apply-phase thread count after resolving the default:
    /// `apply_threads` when set, otherwise `search_threads`.
    pub fn resolved_apply_threads(&self) -> usize {
        self.apply_threads.unwrap_or(self.search_threads).max(1)
    }
}

/// The default search thread count: the `TENSAT_SEARCH_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism (falling back to 1 if that cannot be determined).
pub fn default_search_threads() -> usize {
    search_threads_from_env()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Reads the `TENSAT_SEARCH_THREADS` environment variable: the number of
/// threads the e-matching search phase should use. Returns `None` when the
/// variable is unset or does not parse to a positive integer. Read
/// uncached, like [`ExplorationMode::from_env`], so CI can force the
/// parallel search path without code changes.
pub fn search_threads_from_env() -> Option<usize> {
    parse_thread_count(&std::env::var("TENSAT_SEARCH_THREADS").ok()?)
}

/// Reads the `TENSAT_APPLY_THREADS` environment variable: the number of
/// threads the staged apply phase should use. Returns `None` when the
/// variable is unset or does not parse to a positive integer, in which
/// case the apply phase follows the search thread setting
/// ([`ExplorationConfig::resolved_apply_threads`]).
pub fn apply_threads_from_env() -> Option<usize> {
    parse_thread_count(&std::env::var("TENSAT_APPLY_THREADS").ok()?)
}

fn parse_thread_count(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n >= 1)
}

/// Statistics of one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExplorationStats {
    /// Number of iterations executed ([`Guided`]: beam steps;
    /// [`TasoBacktracking`]: graphs popped from the search queue).
    pub iterations: usize,
    /// Whether the run stopped because no action changed the e-graph
    /// (saturation for [`Saturate`]; beam convergence for [`Guided`]).
    pub saturated: bool,
    /// Final number of e-nodes.
    pub enodes: usize,
    /// Final number of e-classes.
    pub eclasses: usize,
    /// Number of e-nodes placed on the cycle filter list.
    pub filtered_nodes: usize,
    /// Total wall-clock time of the exploration phase.
    pub time: Duration,
    /// Time spent in the e-matching search phase, summed over
    /// [`Saturate`]'s iterations or [`Guided`]'s per-state searches.
    /// [`TasoBacktracking`] has no such phase and leaves it zero.
    pub search_time: Duration,
    /// Time spent staging and committing rewrite applications, summed like
    /// `search_time`.
    pub apply_time: Duration,
    /// Time spent rebuilding and cycle-filtering, summed like
    /// `search_time`.
    pub rebuild_time: Duration,
    /// E-node count after each iteration.
    pub nodes_per_iteration: Vec<usize>,
    /// Name of the strategy that produced these statistics (filled in by
    /// [`explore_with`]; empty for stats built elsewhere).
    pub strategy: &'static str,
}

/// The single exploration seam: every strategy grows an e-graph in place
/// from the compiled rule programs, guard tables, and budgets in a shared
/// [`ExplorationContext`], and reports [`ExplorationStats`] — so the
/// optimizer, the benches, and future strategies (e.g. learned policies)
/// all drive exploration the same way.
pub trait ExplorationStrategy: std::fmt::Debug {
    /// Short stable name used in reports and the `TENSAT_EXPLORER`
    /// environment override.
    fn name(&self) -> &'static str;

    /// Grows the e-graph in place under the context's rules and budgets,
    /// returning run statistics.
    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats;
}

/// Runs the exploration phase on an e-graph already seeded with the input
/// graph, dispatching to the strategy selected by
/// [`ExplorationConfig::mode`]. Returns statistics; the e-graph is grown
/// in place.
pub fn explore(
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    explore_with(
        config.mode.strategy().as_ref(),
        egraph,
        root,
        single_rules,
        multi_rules,
        config,
    )
}

/// Runs the exploration phase with an explicit strategy: compiles the rule
/// programs into an [`ExplorationContext`] and hands the e-graph to the
/// strategy. [`explore`] is this with the strategy picked by
/// [`ExplorationConfig::mode`].
pub fn explore_with(
    strategy: &dyn ExplorationStrategy,
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    let ctx = ExplorationContext::new(root, single_rules, multi_rules, config);
    let mut stats = strategy.run(egraph, &ctx);
    stats.strategy = strategy.name();
    stats
}

/// Renames the variables of a pattern to canonical names (`?c0`, `?c1`, ...)
/// in first-occurrence order. Returns the canonical pattern and the map
/// from canonical to original variables (Algorithm 1, `CANONICAL`).
pub fn canonicalize_pattern(
    pattern: &Pattern<TensorLang>,
) -> (Pattern<TensorLang>, HashMap<Var, Var>) {
    let mut rename: HashMap<Var, Var> = HashMap::new(); // original -> canonical
    let mut back: HashMap<Var, Var> = HashMap::new(); // canonical -> original
    let mut ast = RecExpr::default();
    for (_, node) in pattern.ast.iter() {
        match node {
            ENodeOrVar::Var(v) => {
                let canonical = *rename.entry(*v).or_insert_with(|| {
                    let c = Var::new(format!("c{}", back.len()));
                    back.insert(c, *v);
                    c
                });
                ast.add(ENodeOrVar::Var(canonical));
            }
            ENodeOrVar::ENode(n) => {
                ast.add(ENodeOrVar::ENode(n.clone()));
            }
        }
    }
    (Pattern::new(ast), back)
}

/// Translates a substitution over canonical variables back to the original
/// variables of a rule (Algorithm 1, `DECANONICAL`).
pub fn decanonicalize_subst(subst: &Subst, back: &HashMap<Var, Var>) -> Subst {
    let mut out = Subst::new();
    for (var, id) in subst.iter() {
        let original = back.get(&var).copied().unwrap_or(var);
        out.insert(original, id);
    }
    out
}

/// Merges two substitutions, returning `None` if they disagree on a shared
/// variable (Algorithm 1, `COMPATIBLE`).
pub fn merge_substs(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> Option<Subst> {
    let mut out = a.clone();
    for (var, id) in b.iter() {
        match out.get(var) {
            Some(existing) if egraph.find(existing) != egraph.find(id) => return None,
            Some(_) => {}
            None => {
                out.insert(var, id);
            }
        }
    }
    Some(out)
}

/// True if two substitutions bind the same variables to the same e-classes
/// *modulo the union-find*. The derived `PartialEq` on [`Subst`] compares
/// raw `Id`s, which is too strict inside the apply loop: a union performed
/// by an earlier application can leave two equivalent bindings with
/// different (non-canonical) ids, letting them slip past the
/// `skip_identical` self-application guard.
pub(crate) fn substs_equal_canonical(egraph: &TensorEGraph, a: &Subst, b: &Subst) -> bool {
    a.len() == b.len()
        && a.iter().all(
            |(var, id)| matches!(b.get(var), Some(other) if egraph.find(other) == egraph.find(id)),
        )
}

/// A multi-pattern rule with its sources resolved into the deduplicated
/// canonical pattern list the engine searches once per iteration.
pub(crate) struct MultiRuleCompiled {
    pub(crate) rule: MultiPatternRule,
    /// For each source pattern: index into the unique canonical pattern
    /// list and the canonical→original variable map.
    pub(crate) srcs: Vec<(usize, HashMap<Var, Var>)>,
}

/// Builds one guarded e-matching program per unique canonical multi-pattern
/// source, pushing the rules' target-implied per-variable constraints
/// ([`MultiPatternRule::target_guard_kinds`]) into the machine.
///
/// Canonical sources are deduplicated *across* rules, so a canonical
/// variable may stand for different original variables in different rules.
/// It gets a guard only if **every** (rule, source) pair searching through
/// this canonical pattern implies one — i.e. its original variable occurs
/// in at least one of that rule's targets — and the kind constraint is the
/// *intersection* of the referrers' constraints (validity, their common
/// floor, is always required). A match pruned by such a guard binds, for
/// every referrer, a variable whose target inference is guaranteed invalid,
/// so no Cartesian combination containing it could ever fire.
pub(crate) fn compile_multi_guards(
    unique_patterns: &[Pattern<TensorLang>],
    compiled: &[MultiRuleCompiled],
) -> Vec<GuardedProgram<TensorLang, TensorData>> {
    // Per unique pattern: canonical var -> Some(intersected kinds) while
    // every referrer so far guards it, or None once one referrer cannot.
    let mut info: Vec<Option<HashMap<Var, Option<BTreeSet<DataKind>>>>> =
        vec![None; unique_patterns.len()];
    for mrule in compiled {
        let rule_kinds = mrule.rule.target_guard_kinds();
        for (idx, back) in &mrule.srcs {
            match &mut info[*idx] {
                slot @ None => {
                    *slot = Some(
                        back.iter()
                            .map(|(canon, orig)| (*canon, rule_kinds.get(orig).cloned()))
                            .collect(),
                    );
                }
                Some(existing) => {
                    for (canon, orig) in back {
                        let entry = existing
                            .get_mut(canon)
                            .expect("same canonical pattern has the same variables");
                        *entry = match (entry.take(), rule_kinds.get(orig)) {
                            (Some(a), Some(b)) => Some(a.intersection(b).copied().collect()),
                            _ => None,
                        };
                    }
                }
            }
        }
    }
    unique_patterns
        .iter()
        .zip(info)
        .map(|(pattern, info)| {
            let mut guards: Vec<(Var, tensat_rules::TensorGuard)> = info
                .into_iter()
                .flatten()
                .filter_map(|(var, kinds)| kinds.map(|k| (var, guard_for_kinds(&k))))
                .collect();
            // HashMap iteration order is arbitrary; sort so the compiled
            // guard table (and pred indices) is deterministic across runs.
            guards.sort_by_key(|(var, _)| *var);
            GuardedProgram::compile(&pattern.ast, &guards)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_ir::{Activation, GraphBuilder, Padding, TensorAnalysis};
    use tensat_rules::{multi_rules, parse_pattern, single_rules};

    fn two_matmul_graph() -> (TensorEGraph, Id) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let w1 = g.weight("w1", &[256, 128]);
        let w2 = g.weight("w2", &[256, 128]);
        let m1 = g.matmul(x, w1);
        let m2 = g.matmul(x, w2);
        let expr = g.finish(&[m1, m2]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        (eg, root)
    }

    #[test]
    fn thread_count_env_parsing() {
        // Exercise the parser (shared by TENSAT_SEARCH_THREADS and
        // TENSAT_APPLY_THREADS) directly rather than via `set_var`: tests
        // run concurrently, and mutating the environment would race with
        // other tests reading it.
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 16\n"), Some(16));
        assert_eq!(parse_thread_count("0"), None, "0 threads is rejected");
        assert_eq!(parse_thread_count("auto"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    #[test]
    fn canonicalization_renames_consistently() {
        let p = parse_pattern("(matmul ?act ?x ?w1)").unwrap();
        let (canon, back) = canonicalize_pattern(&p);
        assert_eq!(canon.to_string(), "(matmul ?c0 ?c1 ?c2)");
        assert_eq!(back[&Var::new("c1")], Var::new("x"));
        // Two alpha-equivalent patterns canonicalize identically.
        let q = parse_pattern("(matmul ?a ?b ?c)").unwrap();
        let (canon_q, _) = canonicalize_pattern(&q);
        assert_eq!(canon.to_string(), canon_q.to_string());
        // Repeated variables keep their identity.
        let r = parse_pattern("(ewadd ?x ?x)").unwrap();
        let (canon_r, _) = canonicalize_pattern(&r);
        assert_eq!(canon_r.to_string(), "(ewadd ?c0 ?c0)");
    }

    #[test]
    fn merge_substs_detects_conflicts() {
        let (eg, root) = two_matmul_graph();
        let other = eg
            .classes()
            .map(|c| c.id)
            .find(|&c| eg.find(c) != eg.find(root))
            .unwrap();
        let mut a = Subst::new();
        a.insert(Var::new("x"), root);
        let mut b = Subst::new();
        b.insert(Var::new("x"), other);
        b.insert(Var::new("y"), root);
        assert!(merge_substs(&eg, &a, &b).is_none());
        let mut c = Subst::new();
        c.insert(Var::new("x"), root);
        c.insert(Var::new("z"), other);
        let merged = merge_substs(&eg, &a, &c).unwrap();
        assert_eq!(merged.len(), 2);
    }

    /// The canonical multi-pattern sources are deduplicated across rules,
    /// so a canonical variable is guarded only when *every* referring
    /// (rule, source) pair implies a guard for it, with intersected kinds.
    #[test]
    fn multi_guards_intersect_across_rules_sharing_a_canonical_source() {
        // Both stock matmul rules share the canonical source
        // (matmul ?c0 ?c1 ?c2) and both use all their source variables in
        // their targets: ?c0 (activation) gets a validity-only guard, the
        // two operands get tensor guards.
        let rules = multi_rules();
        let compiled: Vec<MultiRuleCompiled> = {
            // Mirror the compilation explore() performs.
            let mut unique: Vec<Pattern<TensorLang>> = vec![];
            let mut index: HashMap<String, usize> = HashMap::new();
            let compiled: Vec<MultiRuleCompiled> = rules
                .iter()
                .map(|rule| MultiRuleCompiled {
                    rule: rule.clone(),
                    srcs: rule
                        .srcs
                        .iter()
                        .map(|src| {
                            let (canon, back) = canonicalize_pattern(src);
                            let key = canon.to_string();
                            let idx = *index.entry(key).or_insert_with(|| {
                                unique.push(canon.clone());
                                unique.len() - 1
                            });
                            (idx, back)
                        })
                        .collect(),
                })
                .collect();
            let guarded = compile_multi_guards(&unique, &compiled);
            // matmul + conv canonical sources; each fully guarded.
            assert_eq!(guarded.len(), 2);
            for g in &guarded {
                assert_eq!(
                    g.program().guard_vars().len(),
                    g.guards().len(),
                    "guard table parallel to guard vars"
                );
                assert!(
                    !g.guards().is_empty(),
                    "every stock rule guards its canonical source vars"
                );
            }
            // The matmul source guards all three canonical variables.
            let matmul = &guarded[0];
            assert_eq!(matmul.program().guard_vars().len(), 3);
            compiled
        };

        // A synthetic rule reusing the same canonical matmul source but
        // never using ?w in its targets: the shared canonical variable for
        // ?w loses its guard (intersection with "no guard" is "no guard").
        let loose = MultiPatternRule::new(
            "loose",
            &["(matmul ?act ?x ?w)", "(matmul ?act ?x ?w2)"],
            &["(relu ?x)", "(relu ?x)"],
        );
        let (canon, back) = canonicalize_pattern(&loose.srcs[0]);
        let unique = vec![canon];
        let both = vec![
            MultiRuleCompiled {
                rule: compiled[0].rule.clone(),
                srcs: vec![compiled[0].srcs[0].clone()],
            },
            MultiRuleCompiled {
                rule: loose.clone(),
                srcs: vec![(0, back)],
            },
        ];
        let guarded = compile_multi_guards(&unique, &both);
        // ?c1 (?x in both rules) keeps a guard; ?c2 (?w1 / ?w) loses it
        // because `loose` never mentions ?w in a target; ?c0 (?act) loses
        // it for the same reason.
        assert_eq!(guarded[0].program().guard_vars(), &[Var::new("c1")]);
    }

    #[test]
    fn multi_pattern_rule_merges_parallel_matmuls() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 1,
            max_iter: 3,
            node_limit: 20_000,
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &[], &multi_rules(), &config);
        assert!(stats.enodes > 10);
        // The merged matmul over concatenated weights must now exist.
        let has_concat_matmul = eg
            .classes()
            .any(|c| c.iter().any(|n| matches!(n, TensorLang::Split0(_))));
        assert!(
            has_concat_matmul,
            "expected split0 node from the multi-pattern rule"
        );
    }

    #[test]
    fn exploration_saturates_on_trivial_graph() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[4, 4]);
        let expr = g.finish(&[x]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let stats = explore(
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig::default(),
        );
        assert!(stats.saturated);
        assert!(stats.iterations <= 2);
        assert_eq!(stats.strategy, "saturate");
    }

    /// Regression test: the single-pattern apply loop only checked
    /// `node_limit`, never the wall-clock budget, so one large match batch
    /// blew straight through `time_limit`. A condition that sleeps 10 ms
    /// per candidate on a graph with 20 matches would run ~200 ms under the
    /// old code; with the in-loop check it must stop within a few sleeps of
    /// the 30 ms budget.
    #[test]
    fn time_limit_bounds_single_pattern_apply_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mut g = GraphBuilder::new();
        let x = g.input("x", &[64, 256]);
        let mut outs = vec![];
        for i in 0..20 {
            let w = g.weight(&format!("w{i}"), &[256, 128]);
            outs.push(g.matmul(x, w));
        }
        let expr = g.finish(&outs);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();

        let condition_calls = Arc::new(AtomicUsize::new(0));
        let calls = condition_calls.clone();
        let slow_noop = TensorRewrite::new_conditional(
            "slow-noop",
            parse_pattern("(matmul ?act ?x ?w)").unwrap(),
            parse_pattern("(matmul ?act ?x ?w)").unwrap(),
            Arc::new(move |_, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                true
            }),
        );
        let config = ExplorationConfig {
            k_multi: 0,
            max_iter: 1,
            time_limit: Duration::from_millis(30),
            cycle_filter: CycleFilter::Off,
            ..Default::default()
        };
        explore(&mut eg, root, &[slow_noop], &[], &config);
        let calls = condition_calls.load(Ordering::SeqCst);
        assert!(calls >= 1, "the apply loop must have started");
        assert!(
            calls < 20,
            "apply batch ignored the time limit: all {calls} candidates ran"
        );
    }

    /// Regression test for the `skip_identical` guard: equivalent bindings
    /// whose raw ids differ (equal only modulo `find`) must count as
    /// identical once the classes are unioned.
    #[test]
    fn substs_equal_canonical_compares_modulo_find() {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let a = eg.add(TensorLang::Num(1));
        let b = eg.add(TensorLang::Num(2));
        let x = Var::new("x");
        let mut s1 = Subst::new();
        s1.insert(x, a);
        let mut s2 = Subst::new();
        s2.insert(x, b);
        // Distinct classes: neither raw nor canonical equality.
        assert_ne!(s1, s2);
        assert!(!substs_equal_canonical(&eg, &s1, &s2));
        // Union the classes mid-iteration (no rebuild, as in the apply
        // loop): raw ids still differ — the derived PartialEq the old guard
        // used says "different" — but canonically they are the same binding.
        eg.union(a, b);
        assert_ne!(s1, s2, "raw ids still differ after the union");
        assert!(substs_equal_canonical(&eg, &s1, &s2));
        // Different variable sets never compare equal.
        let mut s3 = Subst::new();
        s3.insert(Var::new("y"), a);
        assert!(!substs_equal_canonical(&eg, &s1, &s3));
        let mut s4 = s1.clone();
        s4.insert(Var::new("y"), a);
        assert!(!substs_equal_canonical(&eg, &s1, &s4));
    }

    /// Parallel search must not change exploration outcomes: the same graph
    /// explored with 1 thread and 4 threads produces identical statistics
    /// (match lists are bit-identical, so every downstream decision —
    /// conditions, cycle filtering, application order — is too).
    #[test]
    fn exploration_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let (mut eg, root) = two_matmul_graph();
            let config = ExplorationConfig {
                k_multi: 2,
                max_iter: 4,
                node_limit: 5_000,
                search_threads: threads,
                ..Default::default()
            };
            let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
            (
                stats.iterations,
                stats.nodes_per_iteration,
                eg.total_number_of_nodes(),
                eg.number_of_classes(),
                eg.union_count(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    /// Guided fills in the phase timers, as Saturate does: a run that
    /// grows the e-graph spent time searching and applying.
    #[test]
    fn guided_reports_phase_times() {
        // conv + relu: fusing the relu into the conv lowers the cost, so
        // the beam keeps a grown state.
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[1, 64, 28, 28]);
        let w = g.weight("w", &[64, 64, 3, 3]);
        let c = g.conv(x, w, (1, 1), Padding::Same, Activation::None);
        let r = g.relu(c);
        let expr = g.finish(&[r]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let seed_nodes = eg.total_number_of_nodes();
        let config = ExplorationConfig {
            mode: ExplorationMode::Guided,
            node_limit: 5_000,
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        assert_eq!(stats.strategy, "guided");
        assert!(stats.enodes > seed_nodes, "the guided run applied nothing");
        assert!(stats.search_time > Duration::ZERO);
        assert!(stats.apply_time > Duration::ZERO);
    }

    #[test]
    fn node_limit_is_respected() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 3,
            max_iter: 10,
            node_limit: 60,
            ..Default::default()
        };
        explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        // Growth stops once the limit is crossed (a single batch may
        // overshoot slightly, but not massively).
        assert!(eg.total_number_of_nodes() < 600);
    }

    #[test]
    fn exploration_with_filtering_leaves_no_cycles() {
        let (mut eg, root) = two_matmul_graph();
        let config = ExplorationConfig {
            k_multi: 2,
            max_iter: 4,
            node_limit: 5_000,
            cycle_filter: CycleFilter::Efficient,
            ..Default::default()
        };
        explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
        assert!(crate::cycles::find_cycles(&eg, root).is_empty());
    }

    /// A cycle one rule would close before the post-pass removes cycles:
    /// `relu(?x) => ?x` merges `relu(x)` with `x` (a cycle the leaf check
    /// cannot see, left to the post-pass), after which `relu(?x) =>
    /// tanh(?x)` in the same batch would add `tanh` of the merged class to
    /// itself. The staged pre-filter must skip that application, so the
    /// post-pass filters only the `relu` and no `tanh` is ever added.
    #[test]
    fn staged_cycle_prefilter_skips_an_application_closing_a_cycle() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", &[4, 4]);
        let r = g.relu(x);
        let expr = g.finish(&[r]);
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let rules = [
            tensat_rules::rw("collapse-relu", "(relu ?x)", "?x"),
            tensat_rules::rw("relu-to-tanh", "(relu ?x)", "(tanh ?x)"),
        ];
        let config = ExplorationConfig {
            cycle_filter: CycleFilter::Efficient,
            mode: ExplorationMode::Saturate,
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &rules, &[], &config);
        assert_eq!(
            stats.filtered_nodes, 1,
            "only the collapsed relu is filtered"
        );
        let tanh = eg
            .classes()
            .flat_map(|class| class.iter())
            .any(|node| matches!(node, TensorLang::Tanh(_)));
        assert!(!tanh, "the pre-filter skipped the cycle-closing tanh");
        assert!(crate::cycles::find_cycles(&eg, root).is_empty());
    }

    #[test]
    fn more_multi_iterations_grow_the_egraph() {
        let sizes: Vec<usize> = [0usize, 1, 2]
            .iter()
            .map(|&k| {
                let (mut eg, root) = two_matmul_graph();
                let config = ExplorationConfig {
                    k_multi: k,
                    max_iter: 4,
                    node_limit: 10_000,
                    ..Default::default()
                };
                explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
                eg.total_number_of_nodes()
            })
            .collect();
        assert!(
            sizes[1] > sizes[0],
            "k_multi=1 should grow beyond k_multi=0: {sizes:?}"
        );
        assert!(
            sizes[2] >= sizes[1],
            "k_multi=2 should not shrink: {sizes:?}"
        );
    }

    #[test]
    fn explorer_names_parse_like_the_env_override() {
        for (name, mode) in [
            ("saturate", ExplorationMode::Saturate),
            ("saturation", ExplorationMode::Saturate),
            ("full", ExplorationMode::Saturate),
            ("guided", ExplorationMode::Guided),
            ("beam", ExplorationMode::Guided),
            ("MCTS", ExplorationMode::Guided),
            ("taso", ExplorationMode::Taso),
            ("Backtracking", ExplorationMode::Taso),
        ] {
            assert_eq!(ExplorationMode::from_name(name), Some(mode));
        }
        assert_eq!(ExplorationMode::from_name("ilp"), None);
        assert_eq!(ExplorationMode::Saturate.strategy_name(), "saturate");
        assert_eq!(ExplorationMode::Guided.strategy_name(), "guided");
        assert_eq!(ExplorationMode::Taso.strategy_name(), "taso");
        // Mode and boxed strategy agree on the name.
        for mode in [
            ExplorationMode::Saturate,
            ExplorationMode::Guided,
            ExplorationMode::Taso,
        ] {
            assert_eq!(mode.strategy().name(), mode.strategy_name());
        }
    }

    /// The seam tags stats with the strategy that produced them, for any
    /// strategy — including a custom one implemented outside this crate.
    #[test]
    fn explore_with_runs_custom_strategies() {
        /// A strategy that does nothing but prove the seam is open.
        #[derive(Debug)]
        struct Noop;
        impl ExplorationStrategy for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
            fn run(
                &self,
                egraph: &mut TensorEGraph,
                ctx: &ExplorationContext<'_>,
            ) -> ExplorationStats {
                let mut stats = ExplorationStats::default();
                egraph.rebuild();
                ctx.finish(egraph, &mut stats);
                stats
            }
        }
        let (mut eg, root) = two_matmul_graph();
        let nodes = eg.total_number_of_nodes();
        let stats = explore_with(
            &Noop,
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig::default(),
        );
        assert_eq!(stats.strategy, "noop");
        assert_eq!(stats.enodes, nodes, "noop strategy must not grow the graph");
        assert!(stats.time >= Duration::ZERO);
    }
}
