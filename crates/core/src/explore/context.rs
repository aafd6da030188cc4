//! The shared exploration engine: one [`ExplorationContext`] holds the
//! compiled single- and multi-pattern rule programs, the deduplicated
//! canonical multi sources with their guard tables, the cycle filter, and
//! the run's budget clock. Every
//! [`ExplorationStrategy`](super::ExplorationStrategy) drives the same
//! search/apply machinery through it — [`Saturate`](super::Saturate) as
//! whole iterations ([`ExplorationContext::run_iteration`]),
//! [`Guided`](super::Guided) as per-rule budgeted batches on snapshot
//! states.

use super::{
    canonicalize_pattern, compile_multi_guards, decanonicalize_subst, merge_substs,
    substs_equal_canonical, CycleFilter, ExplorationConfig, ExplorationStats, MultiRuleCompiled,
};
use crate::cycles::{
    remove_all_cycles, staged_would_create_cycle, would_create_cycle, DescendantsMap,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tensat_egraph::{
    search_all, stage_matches_parallel, GuardedProgram, Id, Pattern, SearchMatches, SearchQuery,
    Subst,
};
use tensat_ir::{TensorData, TensorEGraph, TensorLang};
use tensat_rules::{pattern_is_valid, MultiPatternRule, TensorRewrite};

/// Everything a strategy needs to explore: the root, the rules with their
/// compiled programs and guard tables, the configuration, and the budget
/// clock (started when the context is built, i.e. when exploration
/// begins).
pub struct ExplorationContext<'a> {
    root: Id,
    single_rules: &'a [TensorRewrite],
    config: &'a ExplorationConfig,
    /// Multi rules with sources resolved into `unique_patterns`.
    compiled: Vec<MultiRuleCompiled>,
    /// Deduplicated canonical multi-pattern sources (Algorithm 1, lines
    /// 1–8), precompiled.
    unique_patterns: Vec<Pattern<TensorLang>>,
    /// One guarded program per unique canonical source.
    multi_guarded: Vec<GuardedProgram<TensorLang, TensorData>>,
    start: Instant,
}

impl<'a> ExplorationContext<'a> {
    /// Compiles the rule programs: canonicalizes and deduplicates the
    /// multi-pattern sources, builds their guarded programs, and starts
    /// the budget clock.
    pub(crate) fn new(
        root: Id,
        single_rules: &'a [TensorRewrite],
        multi_rules: &[MultiPatternRule],
        config: &'a ExplorationConfig,
    ) -> Self {
        let start = Instant::now();
        let mut unique_patterns: Vec<Pattern<TensorLang>> = vec![];
        let mut pattern_index: HashMap<String, usize> = HashMap::new();
        let compiled: Vec<MultiRuleCompiled> = multi_rules
            .iter()
            .map(|rule| {
                let srcs = rule
                    .srcs
                    .iter()
                    .map(|src| {
                        let (canon, back) = canonicalize_pattern(src);
                        let key = canon.to_string();
                        let idx = *pattern_index.entry(key).or_insert_with(|| {
                            unique_patterns.push(canon.clone());
                            unique_patterns.len() - 1
                        });
                        (idx, back)
                    })
                    .collect();
                MultiRuleCompiled {
                    rule: rule.clone(),
                    srcs,
                }
            })
            .collect();
        // The deduplicated canonical sources are searched once per
        // iteration: compile their e-matching programs — both the guarded
        // ones (with the rules' target-implied analysis guards pushed into
        // the machine) and the plain ones (used for the final multi
        // iteration, see `run_iteration`) — before any strategy starts.
        let multi_guarded = compile_multi_guards(&unique_patterns, &compiled);
        for pattern in &unique_patterns {
            pattern.precompile();
        }
        ExplorationContext {
            root,
            single_rules,
            config,
            compiled,
            unique_patterns,
            multi_guarded,
            start,
        }
    }

    /// The root e-class exploration optimizes for.
    pub fn root(&self) -> Id {
        self.root
    }

    /// The exploration configuration.
    pub fn config(&self) -> &ExplorationConfig {
        self.config
    }

    /// The single-pattern rule set.
    pub fn single_rules(&self) -> &[TensorRewrite] {
        self.single_rules
    }

    /// Number of multi-pattern rules (indexable by
    /// [`ExplorationContext::apply_multi_budgeted`]).
    pub fn multi_rule_count(&self) -> usize {
        self.compiled.len()
    }

    /// Wall-clock time since exploration began.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// True once the time or node budget is exhausted for this e-graph —
    /// the iteration-boundary check of Algorithm 1.
    pub fn over_budget(&self, egraph: &TensorEGraph) -> bool {
        self.elapsed() >= self.config.time_limit
            || egraph.total_number_of_nodes() >= self.config.node_limit
    }

    /// Fills in the final-state fields of `stats` (e-node/e-class counts
    /// and total time). Strategies call this once before returning.
    pub fn finish(&self, egraph: &TensorEGraph, stats: &mut ExplorationStats) {
        stats.enodes = egraph.total_number_of_nodes();
        stats.eclasses = egraph.number_of_classes();
        stats.time = self.elapsed();
    }

    /// One full engine iteration — Algorithm 1's loop body: batched
    /// guarded search of every rule against the iteration-start e-graph,
    /// apply all single-pattern matches, apply multi-pattern combinations
    /// (first `k_multi` iterations only), rebuild, and resolve cycles.
    /// Updates `stats` and returns whether the e-graph changed (`false`
    /// means saturation).
    pub fn run_iteration(
        &self,
        egraph: &mut TensorEGraph,
        iter: usize,
        stats: &mut ExplorationStats,
    ) -> bool {
        let config = self.config;
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();

        // Descendants map for the efficient pre-filter (Algorithm 2, line 3).
        let desc = self.descendants(egraph);

        // --- search phase ---------------------------------------------------
        // All matches — single-pattern and multi-pattern alike — are
        // collected against the iteration-start e-graph, which is clean
        // (rebuilt at the end of the previous iteration): pattern search
        // requires a clean e-graph for the operator index and congruence
        // invariant to hold. This mirrors Algorithm 1, which gathers every
        // match before applying any substitution.
        //
        // Every searcher (single-pattern rules and the deduplicated
        // canonical multi-pattern sources) goes through one batch of the
        // sharded search driver, so a hot rule's candidate chunks spread
        // over all `search_threads` threads; with 1 thread the driver is
        // the sequential machine verbatim, and the match lists are
        // bit-identical either way. Each query carries its analysis-guard
        // table (single rules: the per-variable part of their shape check;
        // multi sources: the intersected target-implied constraints), so
        // inadmissible bindings die inside the machine.
        let do_multi = iter < config.k_multi;
        let search_start = Instant::now();
        let mut queries: Vec<SearchQuery<'_, TensorLang, TensorData>> = self
            .single_rules
            .iter()
            .map(|rw| rw.searcher_query())
            .collect();
        if do_multi {
            // Guards evaluate at search time while `apply_combo` validates
            // at apply time, and unions performed earlier in the same
            // iteration (single-pattern applications run first) can make a
            // binding admissible in between. Within the multi-pattern
            // window a pruned-then-admissible match is simply re-found
            // next iteration; in the *last* multi iteration there is no
            // next chance — multi rules are disabled afterwards — so that
            // final search runs unguarded and leaves admissibility
            // entirely to the apply-time check, exactly the pre-guard
            // behavior. (Single-pattern rules need no such cutoff: they
            // are searched every iteration, and the saturation check only
            // declares a fixpoint when an iteration changed nothing at
            // all.)
            if iter + 1 == config.k_multi {
                queries.extend(
                    self.unique_patterns
                        .iter()
                        .map(|p| (p.program(), &[] as &[_])),
                );
            } else {
                queries.extend(self.multi_guarded.iter().map(|g| g.query()));
            }
        }
        let mut single_matches = search_all(&queries, egraph, config.search_threads);
        let multi_flat: Vec<Vec<(Id, Subst)>> = single_matches
            .split_off(self.single_rules.len())
            .iter()
            .map(|ms| flatten_matches(ms))
            .collect();
        stats.search_time += search_start.elapsed();

        // --- apply single-pattern rules (staged) -----------------------------
        let apply_start = Instant::now();
        let batch: Vec<(&TensorRewrite, &[SearchMatches])> = self
            .single_rules
            .iter()
            .zip(single_matches.iter().map(Vec::as_slice))
            .collect();
        self.stage_and_commit(egraph, &batch, desc.as_ref(), |nodes| {
            nodes >= config.node_limit
        });

        // --- apply multi-pattern rules (first k_multi iterations only) ------
        if do_multi {
            for mrule in &self.compiled {
                apply_multi_rule(
                    egraph,
                    mrule,
                    &multi_flat,
                    config,
                    desc.as_ref(),
                    self.start,
                );
                if egraph.total_number_of_nodes() >= config.node_limit
                    || self.elapsed() >= config.time_limit
                {
                    break;
                }
            }
        }
        stats.apply_time += apply_start.elapsed();

        let rebuild_start = Instant::now();
        egraph.rebuild();

        // Post-processing: resolve cycles that slipped past the pre-filter
        // (Algorithm 2, lines 10–18).
        if config.cycle_filter == CycleFilter::Efficient {
            stats.filtered_nodes += remove_all_cycles(egraph, self.root);
        }
        stats.rebuild_time += rebuild_start.elapsed();

        stats.iterations = iter + 1;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());

        egraph.total_number_of_nodes() != nodes_before || egraph.union_count() != unions_before
    }

    /// Batched guarded search of every single-pattern rule — and, when
    /// `include_multi`, every deduplicated canonical multi-pattern source
    /// — against a candidate state. Returns `(single, multi)` match lists
    /// in rule/source order; match lists are bit-identical across thread
    /// counts, so guided strategies stay deterministic. Adds the search
    /// time to `stats.search_time`.
    ///
    /// Unlike [`ExplorationContext::run_iteration`], the multi sources are
    /// always searched guarded: a guided strategy validates combinations
    /// at apply time anyway, and a pruned-then-admissible binding merely
    /// means that action scores lower in this step.
    pub fn search_state(
        &self,
        egraph: &TensorEGraph,
        include_multi: bool,
        stats: &mut ExplorationStats,
    ) -> (Vec<Vec<SearchMatches>>, Vec<Vec<SearchMatches>>) {
        let search_start = Instant::now();
        let mut queries: Vec<SearchQuery<'_, TensorLang, TensorData>> = self
            .single_rules
            .iter()
            .map(|rw| rw.searcher_query())
            .collect();
        if include_multi {
            queries.extend(self.multi_guarded.iter().map(|g| g.query()));
        }
        let mut single = search_all(&queries, egraph, self.config.search_threads);
        let multi = single.split_off(self.single_rules.len());
        stats.search_time += search_start.elapsed();
        (single, multi)
    }

    /// Applies one single-pattern rule's match batch to a candidate state
    /// under a *hard* node budget: an application is attempted only while
    /// the e-graph plus the applier's worst-case growth (its AST size)
    /// stays within `budget`, so the state never exceeds it. Rebuilds and
    /// cycle-filters afterwards, leaving the state clean for scoring. Adds
    /// the phase times to `stats`.
    pub fn apply_single_budgeted(
        &self,
        egraph: &mut TensorEGraph,
        rule_index: usize,
        matches: &[SearchMatches],
        budget: usize,
        stats: &mut ExplorationStats,
    ) {
        let apply_start = Instant::now();
        let rw = &self.single_rules[rule_index];
        // Worst-case e-nodes one application can add: every pattern node
        // is new. (Variables instantiate to existing classes, so this
        // over-estimates — which only makes the budget check stricter.)
        // One commit adds at most `adds.len() <= headroom` nodes, so the
        // budget stays hard.
        let headroom = rw.applier.ast.len();
        let desc = self.descendants(egraph);
        self.stage_and_commit(egraph, &[(rw, matches)], desc.as_ref(), |nodes| {
            nodes + headroom > budget
        });
        stats.apply_time += apply_start.elapsed();
        self.seal_state(egraph, stats);
    }

    /// Applies one multi-pattern rule's Cartesian combinations to a
    /// candidate state under a hard node budget (same contract as
    /// [`ExplorationContext::apply_single_budgeted`]): the entry check of
    /// the Cartesian recursion runs against a node limit lowered by the
    /// rule's total target size, so no application can push the state past
    /// `budget`. `multi_matches` is indexed by unique canonical source, as
    /// returned by [`ExplorationContext::search_state`].
    pub fn apply_multi_budgeted(
        &self,
        egraph: &mut TensorEGraph,
        rule_index: usize,
        multi_matches: &[Vec<SearchMatches>],
        budget: usize,
        stats: &mut ExplorationStats,
    ) {
        let mrule = &self.compiled[rule_index];
        let headroom: usize = mrule.rule.dsts.iter().map(|d| d.ast.len()).sum();
        if headroom > budget {
            return;
        }
        let apply_start = Instant::now();
        // `cartesian` refuses to apply once `nodes >= node_limit`, so with
        // `node_limit = budget - headroom + 1` every application starts at
        // `nodes <= budget - headroom` and ends at most at `budget`.
        let capped = ExplorationConfig {
            node_limit: budget - headroom + 1,
            ..self.config.clone()
        };
        let desc = self.descendants(egraph);
        let flat: Vec<Vec<(Id, Subst)>> =
            multi_matches.iter().map(|ms| flatten_matches(ms)).collect();
        apply_multi_rule(egraph, mrule, &flat, &capped, desc.as_ref(), self.start);
        stats.apply_time += apply_start.elapsed();
        self.seal_state(egraph, stats);
    }

    /// The descendants map the efficient cycle pre-filter reads, computed
    /// on the e-graph as it is before a batch of applications.
    fn descendants(&self, egraph: &TensorEGraph) -> Option<DescendantsMap> {
        match self.config.cycle_filter {
            CycleFilter::Efficient => Some(DescendantsMap::compute(egraph)),
            _ => None,
        }
    }

    /// Stages a single-pattern match batch against the read-only e-graph —
    /// side conditions evaluate here, sharded across `apply_threads` scoped
    /// workers — then commits it in one sequential pass in batch order.
    /// Before every application the commit pass checks the wall-clock
    /// budget and `full`, the caller's stop condition on the e-node count
    /// ([`Saturate`](super::Saturate)'s soft node limit or
    /// [`Guided`](super::Guided)'s hard budget), and skips applications the
    /// cycle pre-filter rejects. The wall-clock budget also bounds the
    /// staging loop itself: a large match batch must not blow through
    /// `time_limit` evaluating conditions.
    fn stage_and_commit(
        &self,
        egraph: &mut TensorEGraph,
        batch: &[(&TensorRewrite, &[SearchMatches])],
        desc: Option<&DescendantsMap>,
        full: impl Fn(usize) -> bool,
    ) {
        let should_stop = || self.elapsed() >= self.config.time_limit;
        let log = stage_matches_parallel(
            batch,
            egraph,
            self.config.resolved_apply_threads(),
            Some(&should_stop),
        );
        for app in &log.apps {
            if full(egraph.total_number_of_nodes()) || should_stop() {
                break;
            }
            if skip_for_cycles(egraph, self.config.cycle_filter, desc, |desc| {
                staged_would_create_cycle(egraph, desc, app)
            }) {
                continue;
            }
            egraph.commit_staged(app, log.base);
        }
    }

    /// Rebuilds a candidate state and resolves cycles, restoring the
    /// invariants scoring and the next search step rely on. Adds the time
    /// to `stats.rebuild_time`.
    fn seal_state(&self, egraph: &mut TensorEGraph, stats: &mut ExplorationStats) {
        let rebuild_start = Instant::now();
        egraph.rebuild();
        if self.config.cycle_filter == CycleFilter::Efficient {
            remove_all_cycles(egraph, self.root);
        }
        stats.rebuild_time += rebuild_start.elapsed();
    }
}

/// Flattens one source pattern's match list into `(root class, canonical
/// substitution)` entries in search order.
fn flatten_matches(matches: &[SearchMatches]) -> Vec<(Id, Subst)> {
    matches
        .iter()
        .flat_map(|m| m.substs.iter().map(move |s| (m.eclass, s.clone())))
        .collect()
}

/// Returns true if a candidate application must be skipped because it
/// would create a cycle under the configured filtering mode.
/// `creates_cycle` runs the leaf-reaches-root check for the application
/// against a descendants map.
fn skip_for_cycles(
    egraph: &TensorEGraph,
    filter: CycleFilter,
    desc: Option<&DescendantsMap>,
    creates_cycle: impl FnOnce(&DescendantsMap) -> bool,
) -> bool {
    match filter {
        CycleFilter::Off => false,
        CycleFilter::Efficient => {
            creates_cycle(desc.expect("descendants map exists in efficient mode"))
        }
        // Vanilla filtering recomputes reachability for every candidate: a
        // full pass over the e-graph per check (paper §5.2).
        CycleFilter::Vanilla => creates_cycle(&DescendantsMap::compute(egraph)),
    }
}

fn apply_multi_rule(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    all_matches: &[Vec<(Id, Subst)>],
    config: &ExplorationConfig,
    desc: Option<&DescendantsMap>,
    start: Instant,
) {
    // Decanonicalized flat match lists per source pattern.
    let per_src: Vec<Vec<(Id, Subst)>> = mrule
        .srcs
        .iter()
        .map(|(idx, back)| {
            all_matches[*idx]
                .iter()
                .map(|(eclass, subst)| (*eclass, decanonicalize_subst(subst, back)))
                .collect()
        })
        .collect();

    // Cartesian product over the source patterns (Algorithm 1, line 16).
    // All current rules have exactly two sources; the generic recursion
    // handles more.
    let mut combo: Vec<(Id, Subst)> = Vec::with_capacity(per_src.len());
    cartesian(egraph, mrule, &per_src, 0, &mut combo, config, desc, start);
}

#[allow(clippy::too_many_arguments)]
fn cartesian(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    per_src: &[Vec<(Id, Subst)>],
    depth: usize,
    combo: &mut Vec<(Id, Subst)>,
    config: &ExplorationConfig,
    desc: Option<&DescendantsMap>,
    start: Instant,
) {
    if egraph.total_number_of_nodes() >= config.node_limit || start.elapsed() >= config.time_limit {
        return;
    }
    if depth == per_src.len() {
        apply_combo(egraph, mrule, combo, config, desc);
        return;
    }
    for (eclass, subst) in &per_src[depth] {
        if mrule.rule.skip_identical
            && combo.iter().any(|(c, s)| {
                egraph.find(*c) == egraph.find(*eclass) && substs_equal_canonical(egraph, s, subst)
            })
        {
            continue;
        }
        combo.push((*eclass, subst.clone()));
        cartesian(
            egraph,
            mrule,
            per_src,
            depth + 1,
            combo,
            config,
            desc,
            start,
        );
        combo.pop();
        if egraph.total_number_of_nodes() >= config.node_limit {
            return;
        }
    }
}

fn apply_combo(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    combo: &[(Id, Subst)],
    config: &ExplorationConfig,
    desc: Option<&DescendantsMap>,
) {
    // Check compatibility at shared variables and build the merged binding.
    let mut merged = Subst::new();
    for (_, subst) in combo {
        match merge_substs(egraph, &merged, subst) {
            Some(m) => merged = m,
            None => return,
        }
    }
    // Shape check every target, and make sure output shapes match the
    // matched classes.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        if !pattern_is_valid(egraph, dst, &merged) {
            return;
        }
        let target_data = tensat_rules::pattern_data(egraph, dst, &merged);
        let out_shape = target_data
            .last()
            .and_then(|d| d.shape().map(|s| s.to_vec()));
        let class_shape = egraph.eclass(*matched).data.shape().map(|s| s.to_vec());
        if let (Some(a), Some(b)) = (class_shape, out_shape) {
            if a != b {
                return;
            }
        }
    }
    // Cycle pre-filtering per target.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        if skip_for_cycles(egraph, config.cycle_filter, desc, |desc| {
            would_create_cycle(egraph, desc, *matched, dst, &merged)
        }) {
            return;
        }
    }
    // Apply: union each matched class with its instantiated target.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        dst.apply_one(egraph, *matched, &merged);
    }
}
