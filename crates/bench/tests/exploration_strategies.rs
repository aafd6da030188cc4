//! Property tests of the exploration-strategy seam.
//!
//! The seam refactor (PR precedent: the extraction seam) must not change
//! saturation behavior by a single bit, so the pre-refactor monolithic
//! loop is kept verbatim as a differential oracle
//! (`tensat_core::explore::legacy::explore_monolithic`) and compared
//! against [`Saturate`]-through-the-seam on random e-graphs and on every
//! `BENCHMARKS` model:
//!
//! 1. **Bit-identical saturation** — identical node/class/union counts,
//!    identical per-rule match sets on the final e-graph, identical
//!    iteration statistics, and identical tree-greedy and greedy-DAG
//!    extraction results (and, on the benchmark models, identical ILP
//!    extraction results), with the seam's staged apply at 1 and 4 apply
//!    threads against the legacy in-place apply loop;
//! 2. **Guided determinism** — the guided beam search uses no randomness
//!    and no wall-clock tie-breaks, so three runs from the same seed
//!    produce bit-identical e-graphs and extractions;
//! 3. **Hard node budget** — the guided strategy never leaves the e-graph
//!    above `node_limit`, on random programs and on the benchmarks;
//! 4. **Budgeted quality** (the headline acceptance property) — on at
//!    least one benchmark model, guided exploration under a node budget
//!    at least 4x below the saturated size still extracts a DAG no more
//!    expensive than tree-greedy extraction from the fully saturated
//!    e-graph.

use proptest::prelude::*;
use std::time::Duration;
use tensat_core::explore::legacy::explore_monolithic;
use tensat_core::{
    explore, extract_greedy, extract_greedy_dag, extract_ilp, ExplorationConfig, ExplorationMode,
    IlpConfig,
};
use tensat_egraph::{search_all, Id, RecExpr, SearchMatches};
use tensat_ir::{CostModel, GraphBuilder, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// One random op: opcode plus two operand picks (taken modulo the number
/// of nodes built so far, so every program is closed).
type RandOp = (u8, usize, usize);

/// Builds a random square-matrix program over two inputs and two weights
/// (same generator as `extraction_strategies.rs`).
fn build_graph(ops: &[RandOp]) -> RecExpr<TensorLang> {
    const D: i64 = 16;
    let mut g = GraphBuilder::new();
    let mut nodes = vec![
        g.input("x", &[D, D]),
        g.input("y", &[D, D]),
        g.weight("w1", &[D, D]),
        g.weight("w2", &[D, D]),
    ];
    for &(op, a, b) in ops {
        let a = nodes[a % nodes.len()];
        let b = nodes[b % nodes.len()];
        let id = match op % 6 {
            0 => g.ewadd(a, b),
            1 => g.ewmul(a, b),
            2 => g.matmul(a, b),
            3 => g.relu(a),
            4 => g.tanh(a),
            _ => g.sigmoid(a),
        };
        nodes.push(id);
    }
    let root = *nodes.last().unwrap();
    g.finish(&[root])
}

fn seeded(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    (eg, root)
}

/// Deterministic small limits shared by both sides of each comparison.
fn saturate_config(node_limit: usize) -> ExplorationConfig {
    ExplorationConfig {
        mode: ExplorationMode::Saturate,
        k_multi: 1,
        max_iter: 2,
        node_limit,
        time_limit: Duration::from_secs(600),
        search_threads: 1,
        ..Default::default()
    }
}

/// The full per-rule match sets of every single-pattern rule on an
/// e-graph — the strongest observable equality short of dumping storage.
fn match_sets(eg: &TensorEGraph, rules: &[TensorRewrite]) -> Vec<Vec<SearchMatches>> {
    let queries: Vec<_> = rules.iter().map(|rw| rw.searcher_query()).collect();
    search_all(&queries, eg, 1)
}

/// Runs the legacy monolith and the seamed `Saturate` strategy from the
/// same seed and asserts bit-identical results. Returns both final
/// e-graphs with their roots, legacy first.
/// (The vendored `prop_assert!` macros are plain assertions, so this
/// helper panics on mismatch — fine both inside and outside `proptest!`.)
fn assert_bit_identical(
    graph: &RecExpr<TensorLang>,
    singles: &[TensorRewrite],
    multis: &[MultiPatternRule],
    config: &ExplorationConfig,
) -> [(TensorEGraph, Id); 2] {
    let (mut legacy_eg, legacy_root) = seeded(graph);
    let legacy_stats = explore_monolithic(&mut legacy_eg, legacy_root, singles, multis, config);

    let (mut seam_eg, seam_root) = seeded(graph);
    let seam_stats = explore(&mut seam_eg, seam_root, singles, multis, config);
    prop_assert_eq!(seam_stats.strategy, "saturate");

    // Identical iteration trajectory and final sizes.
    prop_assert_eq!(legacy_stats.iterations, seam_stats.iterations);
    prop_assert_eq!(legacy_stats.saturated, seam_stats.saturated);
    prop_assert_eq!(legacy_stats.filtered_nodes, seam_stats.filtered_nodes);
    prop_assert_eq!(
        &legacy_stats.nodes_per_iteration,
        &seam_stats.nodes_per_iteration
    );
    prop_assert_eq!(legacy_stats.enodes, seam_stats.enodes);
    prop_assert_eq!(legacy_stats.eclasses, seam_stats.eclasses);
    prop_assert_eq!(
        legacy_eg.total_number_of_nodes(),
        seam_eg.total_number_of_nodes()
    );
    prop_assert_eq!(legacy_eg.number_of_classes(), seam_eg.number_of_classes());
    prop_assert_eq!(legacy_eg.union_count(), seam_eg.union_count());

    // Identical per-rule match sets on the final e-graphs.
    prop_assert_eq!(
        match_sets(&legacy_eg, singles),
        match_sets(&seam_eg, singles)
    );

    // Identical extraction results under both greedy extractors.
    let model = CostModel::default();
    let legacy_tree = extract_greedy(&legacy_eg, legacy_root, &model).unwrap();
    let seam_tree = extract_greedy(&seam_eg, seam_root, &model).unwrap();
    prop_assert_eq!(legacy_tree.expr.nodes(), seam_tree.expr.nodes());
    prop_assert_eq!(legacy_tree.dag_cost, seam_tree.dag_cost);
    prop_assert_eq!(legacy_tree.tree_cost, seam_tree.tree_cost);
    let legacy_dag = extract_greedy_dag(&legacy_eg, legacy_root, &model).unwrap();
    let seam_dag = extract_greedy_dag(&seam_eg, seam_root, &model).unwrap();
    prop_assert_eq!(legacy_dag.expr.nodes(), seam_dag.expr.nodes());
    prop_assert_eq!(legacy_dag.dag_cost, seam_dag.dag_cost);

    [(legacy_eg, legacy_root), (seam_eg, seam_root)]
}

proptest! {
    /// Property 1 on random e-graphs, single-pattern rules.
    #[test]
    fn saturate_is_bit_identical_to_legacy_on_random_graphs(ops in op_strategy()) {
        let graph = build_graph(&ops);
        assert_bit_identical(&graph, &single_rules(), &[], &saturate_config(2_000));
    }

    /// Property 3 on random e-graphs: the guided strategy's final e-graph
    /// never exceeds the node budget, and still extracts a valid graph.
    #[test]
    fn guided_respects_the_node_budget_on_random_graphs(ops in op_strategy()) {
        let graph = build_graph(&ops);
        let (mut eg, root) = seeded(&graph);
        let budget = eg.total_number_of_nodes().max(100);
        let config = ExplorationConfig {
            mode: ExplorationMode::Guided,
            node_limit: budget,
            search_threads: 1,
            time_limit: Duration::from_secs(600),
            ..Default::default()
        };
        let stats = explore(&mut eg, root, &single_rules(), &[], &config);
        prop_assert_eq!(stats.strategy, "guided");
        prop_assert!(
            eg.total_number_of_nodes() <= budget,
            "guided left {} e-nodes over the budget of {}",
            eg.total_number_of_nodes(),
            budget
        );
        let model = CostModel::default();
        let out = extract_greedy_dag(&eg, root, &model).unwrap();
        let data = tensat_ir::infer_recexpr(&out.expr);
        prop_assert!(data.iter().all(|d| d.is_valid()));
    }
}

fn op_strategy() -> impl Strategy<Value = Vec<RandOp>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..12)
}

/// Property 1 on every benchmark model, with multi-pattern rules in play
/// (the multi apply path, guard tables, and cycle filter all exercised),
/// for each (node limit, apply threads) pair: the legacy in-place apply
/// loop against the seam's staged apply, sequential and sharded. The ILP
/// extraction outcomes must agree too.
#[test]
fn saturate_is_bit_identical_to_legacy_on_all_benchmarks() {
    let singles = single_rules();
    let multis = multi_rules();
    let model = CostModel::default();
    let ilp = |eg: &TensorEGraph, root: Id| {
        let out = extract_ilp(eg, root, &model, &IlpConfig::default()).unwrap();
        (out.expr.nodes().to_vec(), out.dag_cost)
    };
    for (node_limit, apply_threads) in [(5_000, 1), (2_000, 1), (2_000, 4)] {
        let config = ExplorationConfig {
            apply_threads: Some(apply_threads),
            ..saturate_config(node_limit)
        };
        for name in BENCHMARKS {
            // Shown only when an assertion below fails.
            eprintln!("{name}: node limit {node_limit}, {apply_threads} apply threads");
            let graph = build_benchmark(name, ModelScale::tiny());
            let [(legacy_eg, legacy_root), (seam_eg, seam_root)] =
                assert_bit_identical(&graph, &singles, &multis, &config);
            assert_eq!(
                ilp(&legacy_eg, legacy_root),
                ilp(&seam_eg, seam_root),
                "{name}: ILP outcome diverged from the legacy oracle"
            );
        }
    }
}

/// Property 2: three guided runs from the same seed are bit-identical —
/// same iteration trajectory, same final e-graph counts, same extracted
/// expression. (Wall-clock is the only nondeterministic input, so the
/// time limit is generous enough never to bind.)
#[test]
fn guided_exploration_is_deterministic() {
    let graph = build_benchmark("NasRNN", ModelScale::tiny());
    let config = ExplorationConfig {
        mode: ExplorationMode::Guided,
        node_limit: 1_000,
        search_threads: 1,
        time_limit: Duration::from_secs(600),
        ..Default::default()
    };
    let model = CostModel::default();
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let (mut eg, root) = seeded(&graph);
            let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), &config);
            let out = extract_greedy_dag(&eg, root, &model).unwrap();
            (
                stats.iterations,
                stats.nodes_per_iteration.clone(),
                eg.total_number_of_nodes(),
                eg.number_of_classes(),
                eg.union_count(),
                out.expr.nodes().to_vec(),
                out.dag_cost,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

/// Property 4 (the acceptance criterion): guided exploration under a hard
/// budget at least 4x below the saturated e-graph size extracts a DAG no
/// more expensive than tree-greedy extraction from full saturation, on at
/// least one benchmark model.
#[test]
fn guided_beats_saturation_tree_greedy_under_a_quarter_budget() {
    let singles = single_rules();
    let multis = multi_rules();
    let model = CostModel::default();
    let mut witnesses = Vec::new();
    let mut report = Vec::new();
    for name in BENCHMARKS {
        let graph = build_benchmark(name, ModelScale::tiny());
        let (mut sat_eg, sat_root) = seeded(&graph);
        let seed_nodes = sat_eg.total_number_of_nodes();
        explore(
            &mut sat_eg,
            sat_root,
            &singles,
            &multis,
            &saturate_config(20_000),
        );
        let sat_nodes = sat_eg.total_number_of_nodes();
        let sat_tree = extract_greedy(&sat_eg, sat_root, &model).unwrap();

        let budget = sat_nodes / 4;
        if budget < seed_nodes {
            // The saturated e-graph is not even 4x the seed: the budgeted
            // regime is meaningless for this model at this scale.
            report.push(format!(
                "{name}: saturation {sat_nodes} < 4x seed {seed_nodes}"
            ));
            continue;
        }
        let (mut gui_eg, gui_root) = seeded(&graph);
        let stats = explore(
            &mut gui_eg,
            gui_root,
            &singles,
            &multis,
            &ExplorationConfig {
                mode: ExplorationMode::Guided,
                node_limit: budget,
                search_threads: 1,
                time_limit: Duration::from_secs(600),
                ..Default::default()
            },
        );
        assert!(
            gui_eg.total_number_of_nodes() <= budget,
            "{name}: guided exceeded its budget"
        );
        assert_eq!(stats.strategy, "guided");
        let gui_dag = extract_greedy_dag(&gui_eg, gui_root, &model).unwrap();
        report.push(format!(
            "{name}: guided dag {:.3} @ {} nodes (budget {budget}) vs saturation tree {:.3} @ {sat_nodes} nodes",
            gui_dag.dag_cost,
            gui_eg.total_number_of_nodes(),
            sat_tree.dag_cost,
        ));
        if gui_dag.dag_cost <= sat_tree.dag_cost + 1e-9 {
            witnesses.push(*name);
        }
    }
    assert!(
        !witnesses.is_empty(),
        "no benchmark had guided-under-quarter-budget match saturation tree-greedy:\n{}",
        report.join("\n")
    );
}
