//! Differential proptests of analysis-guided (guarded) e-matching on the
//! real benchmark models (paper §6.1): for every BENCHMARKS model and every
//! single-pattern rule,
//!
//! 1. guarded search = unguarded search post-filtered by the rule's guard
//!    predicates, *bit-identically* (same class order, same substitution
//!    order);
//! 2. filtering both by the legacy post-match [`Condition`] yields the same
//!    surviving applications — the guards are a sound approximation of the
//!    condition, so pushing them into the machine changes *when* dead
//!    bindings die, never *which* applications fire;
//! 3. parallel guarded search is bit-identical to sequential guarded search
//!    for 1–8 threads.
//!
//! The e-graphs are grown by one exploration iteration first so classes
//! hold multiple nodes, as they do during saturation. The dev container is
//! single-core, so these equivalences — not wall-clock numbers — are the
//! correctness story for the guard machinery.
//!
//! [`Condition`]: tensat_egraph::Condition

use proptest::prelude::*;
use std::sync::OnceLock;
use tensat_core::{explore, CycleFilter, ExplorationConfig};
use tensat_egraph::{search_all, SearchMatches, Subst};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{single_rules, TensorRewrite};

/// One explored e-graph per benchmark model, built once and shared
/// read-only across all proptest cases (search never mutates).
fn model_egraphs() -> &'static Vec<(&'static str, TensorEGraph)> {
    static CELL: OnceLock<Vec<(&'static str, TensorEGraph)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rules = single_rules();
        BENCHMARKS
            .iter()
            .map(|name| {
                let graph = build_benchmark(name, ModelScale::default());
                let mut eg = TensorEGraph::new(TensorAnalysis);
                let root = eg.add_expr(&graph);
                eg.rebuild();
                explore(
                    &mut eg,
                    root,
                    &rules,
                    &[],
                    &ExplorationConfig {
                        max_iter: 1,
                        node_limit: 10_000,
                        search_threads: 1,
                        cycle_filter: CycleFilter::Efficient,
                        ..Default::default()
                    },
                );
                (*name, eg)
            })
            .collect()
    })
}

fn rules() -> &'static Vec<TensorRewrite> {
    static CELL: OnceLock<Vec<TensorRewrite>> = OnceLock::new();
    CELL.get_or_init(single_rules)
}

/// Post-filters a match list by a rule's guard predicates — the reference
/// semantics the guarded machine must reproduce bit-identically.
fn filter_by_guards(
    eg: &TensorEGraph,
    rule: &TensorRewrite,
    matches: &[SearchMatches],
) -> Vec<SearchMatches> {
    let Some(guarded) = rule.guarded_program() else {
        return matches.to_vec();
    };
    let vars = guarded.program().guard_vars();
    let preds = guarded.guards();
    matches
        .iter()
        .filter_map(|m| {
            let substs: Vec<Subst> = m
                .substs
                .iter()
                .filter(|s| {
                    vars.iter().zip(preds).all(|(v, g)| match s.get(*v) {
                        // Recompute the kind tag from the data (rather than
                        // reading the e-graph's side table), so a stale tag
                        // table would surface as a divergence here.
                        Some(id) => {
                            let data = &eg.eclass(id).data;
                            g.check(data.kind_tag(), data)
                        }
                        None => true,
                    })
                })
                .cloned()
                .collect();
            (!substs.is_empty()).then_some(SearchMatches {
                eclass: m.eclass,
                substs,
            })
        })
        .collect()
}

/// Post-filters a match list by the rule's legacy post-match condition
/// (`None` = unconditional).
fn filter_by_condition(
    eg: &TensorEGraph,
    rule: &TensorRewrite,
    matches: &[SearchMatches],
) -> Vec<SearchMatches> {
    matches
        .iter()
        .filter_map(|m| {
            let substs: Vec<Subst> = m
                .substs
                .iter()
                .filter(|s| match &rule.condition {
                    Some(cond) => cond(eg, m.eclass, s),
                    None => true,
                })
                .cloned()
                .collect();
            (!substs.is_empty()).then_some(SearchMatches {
                eclass: m.eclass,
                substs,
            })
        })
        .collect()
}

proptest! {
    /// The acceptance property of the guard tentpole, checked on every
    /// BENCHMARKS model with a randomly drawn rule and thread count.
    #[test]
    fn guarded_search_is_equivalent_on_benchmark_models(
        model_idx in 0usize..BENCHMARKS.len(),
        rule_pick in any::<usize>(),
        n_threads in 1usize..=8,
    ) {
        let (name, eg) = &model_egraphs()[model_idx];
        let rules = rules();
        let rule = &rules[rule_pick % rules.len()];

        let unguarded = rule.searcher.search(eg);
        let guarded = rule.search(eg);

        // (1) Guarded search = unguarded search filtered by the guard
        // predicates, bit for bit.
        prop_assert_eq!(
            &guarded,
            &filter_by_guards(eg, rule, &unguarded),
            "model {} rule {}: guarded != filtered unguarded", name, &rule.name
        );

        // (2) The legacy condition accepts the same applications either
        // way: guards only remove matches the condition rejects.
        prop_assert_eq!(
            filter_by_condition(eg, rule, &guarded),
            filter_by_condition(eg, rule, &unguarded),
            "model {} rule {}: guards changed the surviving applications", name, &rule.name
        );

        // (3) Parallel guarded search is bit-identical to sequential.
        if let Some(program) = rule.guarded_program() {
            prop_assert_eq!(
                search_all(&[program.query()], eg, n_threads),
                vec![guarded],
                "model {} rule {}: parallel ({} threads) diverged", name, &rule.name, n_threads
            );
        }
    }
}

/// Exhaustive (non-random) sweep: every model x every rule once, so a
/// regression in a rarely drawn rule cannot hide behind the sampler. Also
/// asserts the workload is substantive — the explored e-graphs produce
/// matches, and every rule carries guards.
#[test]
fn guarded_search_matches_filtered_search_for_every_model_and_rule() {
    let mut total_matches = 0usize;
    for (name, eg) in model_egraphs() {
        assert!(
            eg.total_number_of_nodes() > 10,
            "model {name}: e-graph unexpectedly trivial"
        );
        for rule in rules() {
            assert!(
                rule.guarded_program().is_some(),
                "rule {} lost its guards",
                rule.name
            );
            let unguarded = rule.searcher.search(eg);
            let guarded = rule.search(eg);
            total_matches += unguarded.iter().map(|m| m.substs.len()).sum::<usize>();
            assert_eq!(
                guarded,
                filter_by_guards(eg, rule, &unguarded),
                "model {name} rule {}",
                rule.name
            );
            assert_eq!(
                filter_by_condition(eg, rule, &guarded),
                filter_by_condition(eg, rule, &unguarded),
                "model {name} rule {}",
                rule.name
            );
        }
    }
    assert!(
        total_matches > 100,
        "expected a substantive e-matching workload, saw {total_matches} substitutions"
    );
}
