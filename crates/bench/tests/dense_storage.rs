//! Acceptance test of the dense slot-indexed e-graph storage on the real
//! benchmark models: on every BENCHMARKS model, the compiled machine search
//! equals the legacy recursive oracle (`Pattern::search_naive`) for every
//! rule on the explored e-graph, and the storage passes the exhaustive
//! invariant validator ([`tensat_egraph::EGraph::check_invariants`]).
//!
//! Equality, not wall-clock, is the proof; pure-search speed is tracked by
//! the `ematch_*` benches and the `bench_report` bin.

use std::collections::{BTreeMap, BTreeSet};
use tensat_egraph::{Id, SearchMatches, Subst, Var};
use tensat_ir::{TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::single_rules;

/// Canonical set form of a match list (class identity collapsed to the
/// canonical id *within one e-graph*).
fn normalize(
    eg: &TensorEGraph,
    matches: &[SearchMatches],
) -> BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>> {
    let mut out: BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>> = BTreeMap::new();
    for m in matches {
        let substs = out.entry(eg.find(m.eclass)).or_default();
        for s in &m.substs {
            let mut bindings: Vec<(Var, Id)> =
                Subst::iter(s).map(|(v, id)| (v, eg.find(id))).collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

/// Machine search must agree with the naive oracle for every rule on every
/// explored benchmark model, and the dense storage must validate.
#[test]
fn machine_equals_naive_oracle_on_every_benchmark_model() {
    let rules = single_rules();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        tensat_core::explore(
            &mut eg,
            root,
            &rules,
            &[],
            &tensat_core::ExplorationConfig {
                max_iter: 1,
                node_limit: 5_000,
                search_threads: 1,
                ..Default::default()
            },
        );
        eg.check_invariants();
        for rule in &rules {
            let machine = rule.searcher.search(&eg);
            let naive = rule.searcher.search_naive(&eg);
            assert_eq!(
                normalize(&eg, &machine),
                normalize(&eg, &naive),
                "model {name} rule {}: machine diverged from the naive oracle",
                rule.name
            );
        }
    }
}
