//! The pre-seam monolithic exploration loop, its control flow kept
//! **verbatim** as a differential oracle — the same role
//! [`Pattern::search_naive`] plays for the compiled e-matching machine. The seam refactor
//! ([`Saturate`](super::Saturate) over
//! [`ExplorationContext`](super::ExplorationContext)) is proven
//! bit-identical to this function on random e-graphs and every
//! `BENCHMARKS` model by `crates/bench/tests/exploration_strategies.rs`;
//! nothing in production calls it.
//!
//! The apply machinery (`skip_for_cycles`, `apply_multi_rule`,
//! `cartesian`, `apply_combo`) is duplicated privately rather than shared
//! with the engine, so a regression in the restructured control flow
//! cannot silently rewrite the oracle it is checked against. The pure
//! data-preparation helpers (canonicalization, guard compilation) are
//! shared — they were not restructured — and so is the e-matching driver
//! ([`search_all`]).
//!
//! [`Pattern::search_naive`]: tensat_egraph::Pattern::search_naive

use super::{
    canonicalize_pattern, compile_multi_guards, decanonicalize_subst, merge_substs,
    substs_equal_canonical, CycleFilter, ExplorationConfig, ExplorationStats, MultiRuleCompiled,
};
use crate::cycles::{remove_all_cycles, would_create_cycle, DescendantsMap};
use std::collections::HashMap;
use std::time::Instant;
use tensat_egraph::{search_all, Id, Pattern, SearchQuery, Subst};
use tensat_ir::{TensorData, TensorEGraph, TensorLang};
use tensat_rules::{pattern_is_valid, MultiPatternRule, TensorRewrite};

/// Runs the exploration phase on an e-graph already seeded with the input
/// graph — the pre-seam saturate-all implementation, control flow
/// verbatim. Returns
/// statistics; the e-graph is grown in place.
pub fn explore_monolithic(
    egraph: &mut TensorEGraph,
    root: Id,
    single_rules: &[TensorRewrite],
    multi_rules: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> ExplorationStats {
    let start = Instant::now();
    let mut stats = ExplorationStats::default();
    egraph.rebuild();

    // Canonicalize multi-pattern sources and deduplicate them (Algorithm 1,
    // lines 1–8).
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
    // The deduplicated canonical sources are searched once per iteration:
    // compile their e-matching programs — both the guarded ones (with the
    // rules' target-implied analysis guards pushed into the machine) and
    // the plain ones (used for the final multi iteration, see below) —
    // before the loop starts.
    let multi_guarded = compile_multi_guards(&unique_patterns, &compiled);
    for pattern in &unique_patterns {
        pattern.precompile();
    }

    for iter in 0..config.max_iter {
        if start.elapsed() >= config.time_limit
            || egraph.total_number_of_nodes() >= config.node_limit
        {
            break;
        }
        let nodes_before = egraph.total_number_of_nodes();
        let unions_before = egraph.union_count();

        // Descendants map for the efficient pre-filter (Algorithm 2, line 3).
        let mut desc = match config.cycle_filter {
            CycleFilter::Efficient => Some(DescendantsMap::compute(egraph)),
            _ => None,
        };

        // --- search phase ---------------------------------------------------
        let do_multi = iter < config.k_multi;
        let mut queries: Vec<SearchQuery<'_, TensorLang, TensorData>> =
            single_rules.iter().map(|rw| rw.searcher_query()).collect();
        if do_multi {
            if iter + 1 == config.k_multi {
                queries.extend(unique_patterns.iter().map(|p| (p.program(), &[] as &[_])));
            } else {
                queries.extend(multi_guarded.iter().map(|g| g.query()));
            }
        }
        let mut single_matches = search_all(&queries, egraph, config.search_threads);
        let multi_matches: Vec<_> = if do_multi {
            single_matches.split_off(single_rules.len())
        } else {
            vec![]
        };

        // --- apply single-pattern rules --------------------------------------
        'single_apply: for (rw, matches) in single_rules.iter().zip(&single_matches) {
            for m in matches {
                for subst in &m.substs {
                    if egraph.total_number_of_nodes() >= config.node_limit
                        || start.elapsed() >= config.time_limit
                    {
                        break 'single_apply;
                    }
                    if let Some(cond) = &rw.condition {
                        if !cond(egraph, m.eclass, subst) {
                            continue;
                        }
                    }
                    if skip_for_cycles(
                        egraph,
                        config.cycle_filter,
                        &mut desc,
                        m.eclass,
                        &rw.applier,
                        subst,
                    ) {
                        continue;
                    }
                    rw.applier.apply_one(egraph, m.eclass, subst);
                }
            }
        }

        // --- apply multi-pattern rules (first k_multi iterations only) ------
        if iter < config.k_multi {
            for mrule in &compiled {
                apply_multi_rule(egraph, mrule, &multi_matches, config, &mut desc, start);
                if egraph.total_number_of_nodes() >= config.node_limit
                    || start.elapsed() >= config.time_limit
                {
                    break;
                }
            }
        }

        egraph.rebuild();

        // Post-processing: resolve cycles that slipped past the pre-filter
        // (Algorithm 2, lines 10–18).
        if config.cycle_filter == CycleFilter::Efficient {
            stats.filtered_nodes += remove_all_cycles(egraph, root);
        }

        stats.iterations = iter + 1;
        stats
            .nodes_per_iteration
            .push(egraph.total_number_of_nodes());

        let changed =
            egraph.total_number_of_nodes() != nodes_before || egraph.union_count() != unions_before;
        if !changed {
            stats.saturated = true;
            break;
        }
    }

    stats.enodes = egraph.total_number_of_nodes();
    stats.eclasses = egraph.number_of_classes();
    stats.time = start.elapsed();
    stats
}

/// Returns true if the candidate application must be skipped because it
/// would create a cycle under the configured filtering mode.
fn skip_for_cycles(
    egraph: &TensorEGraph,
    filter: CycleFilter,
    desc: &mut Option<DescendantsMap>,
    matched: Id,
    target: &Pattern<TensorLang>,
    subst: &Subst,
) -> bool {
    match filter {
        CycleFilter::Off => false,
        CycleFilter::Efficient => {
            let desc = desc
                .as_ref()
                .expect("descendants map exists in efficient mode");
            would_create_cycle(egraph, desc, matched, target, subst)
        }
        CycleFilter::Vanilla => {
            let fresh = DescendantsMap::compute(egraph);
            would_create_cycle(egraph, &fresh, matched, target, subst)
        }
    }
}

fn apply_multi_rule(
    egraph: &mut TensorEGraph,
    mrule: &MultiRuleCompiled,
    all_matches: &[Vec<tensat_egraph::SearchMatches>],
    config: &ExplorationConfig,
    desc: &mut Option<DescendantsMap>,
    start: Instant,
) {
    // Decanonicalized flat match lists per source pattern.
    let per_src: Vec<Vec<(Id, Subst)>> = mrule
        .srcs
        .iter()
        .map(|(idx, back)| {
            all_matches[*idx]
                .iter()
                .flat_map(|m| {
                    m.substs
                        .iter()
                        .map(move |s| (m.eclass, decanonicalize_subst(s, back)))
                })
                .collect()
        })
        .collect();

    // Cartesian product over the source patterns (Algorithm 1, line 16).
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
    desc: &mut Option<DescendantsMap>,
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
    desc: &mut Option<DescendantsMap>,
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
        if skip_for_cycles(egraph, config.cycle_filter, desc, *matched, dst, &merged) {
            return;
        }
    }
    // Apply: union each matched class with its instantiated target.
    for ((matched, _), dst) in combo.iter().zip(&mrule.rule.dsts) {
        dst.apply_one(egraph, *matched, &merged);
    }
}
