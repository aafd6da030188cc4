//! Budget regression tests of the staged-parallel apply + rebuild path:
//! the node limit is enforced per-commit (overshoot bounded by a single
//! staged application, never a whole merged log), and a zero time limit
//! halts exploration before the first iteration.
//!
//! The staged applier's bit-identity to the in-place sequential apply
//! loop — full saturation on every `BENCHMARKS` model at 1 and 4 apply
//! threads against the legacy monolithic oracle — is checked by
//! `saturate_is_bit_identical_to_legacy_on_all_benchmarks` in
//! `exploration_strategies.rs`.

use std::time::Duration;
use tensat_core::{explore, ExplorationConfig, ExplorationMode};
use tensat_egraph::{Id, RecExpr};
use tensat_ir::{TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale};
use tensat_rules::{multi_rules, single_rules};

fn seeded(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    (eg, root)
}

/// Deterministic limits shared by every run. Threads only vary on the
/// apply side: search stays single-threaded so any divergence is
/// attributable to the staged applier.
fn config(node_limit: usize, apply_threads: usize) -> ExplorationConfig {
    ExplorationConfig {
        mode: ExplorationMode::Saturate,
        k_multi: 1,
        max_iter: 2,
        node_limit,
        time_limit: Duration::from_secs(600),
        search_threads: 1,
        apply_threads: Some(apply_threads),
        ..Default::default()
    }
}

/// Regression: the node limit is enforced inside `commit_log` before every
/// staged application, so a run can overshoot by at most one application's
/// right-hand side — never by a whole merged log (which on these models
/// holds thousands of staged e-nodes).
#[test]
fn node_limit_is_enforced_per_commit_not_per_log() {
    // Largest right-hand side in the rule corpus, with margin: a single
    // application can add at most this many e-nodes past the limit.
    const MAX_RHS_NODES: usize = 32;
    let singles = single_rules();
    let multis = multi_rules();
    for name in ["NasRNN", "BERT"] {
        let graph = build_benchmark(name, ModelScale::tiny());
        for apply_threads in [1, 4] {
            let (mut eg, root) = seeded(&graph);
            let node_limit = eg.total_number_of_nodes() + 50;
            let stats = explore(
                &mut eg,
                root,
                &singles,
                &multis,
                &config(node_limit, apply_threads),
            );
            assert!(
                stats.enodes <= node_limit + MAX_RHS_NODES,
                "{name}: {} e-nodes overshot the {node_limit} limit by more than \
                 one application at {apply_threads} apply threads",
                stats.enodes
            );
        }
    }
}

/// Regression: the time limit is checked before every iteration (and
/// before every staged candidate), so a zero budget halts exploration
/// before the first iteration mutates anything.
#[test]
fn zero_time_limit_halts_before_the_first_iteration() {
    let graph = build_benchmark("NasRNN", ModelScale::tiny());
    let (mut eg, root) = seeded(&graph);
    let seed_nodes = eg.total_number_of_nodes();
    let stats = explore(
        &mut eg,
        root,
        &single_rules(),
        &multi_rules(),
        &ExplorationConfig {
            time_limit: Duration::ZERO,
            ..config(2_000, 4)
        },
    );
    assert_eq!(stats.iterations, 0);
    assert_eq!(eg.total_number_of_nodes(), seed_nodes);
}
