//! Acceptance tests of the ILP problem-reduction pipeline on the real
//! benchmark models (the ISSUE-10 tentpole): on every `BENCHMARKS` model,
//! reduced exact extraction must return the *same optimal cost* as the
//! monolithic §5.1 oracle — and do it fast.
//!
//! 1. **Differential optimality** — on the bench-scale grown e-graph of
//!    every model, `extract_ilp` with reduction on and off both reach
//!    `Optimal` and agree on `dag_cost` to 1e-9, the reduction's
//!    "before" stats equal the monolithic encoding's size, and the
//!    residual problem never grows.
//! 2. **Per-model time budget** — the reduced solve completes within a
//!    generous per-model wall-clock budget. The release budget (5 s) is
//!    ~100x the worst observed time on a 2-core container (BERT ≈ 40–55
//!    ms for 88 623 nodes; every other model takes about a millisecond,
//!    and the whole test, monolithic oracles included, under 1 s), so it
//!    only trips on a gross regression — the pre-reduction BERT solve took
//!    ~34–47 s — without flaking on machine noise.
//! 3. **Pinned search trees** — `GOLDEN` records each model's reduced
//!    and monolithic `nodes_explored` and its optimal `dag_cost`. The
//!    solver must walk exactly those trees: a change that alters the
//!    tree, not only its speed, fails here. A node count may differ only
//!    where the incumbent check rejected an assignment
//!    (`IlpStats::rejected > 0`); the asserted `Optimal` status implies it
//!    rejected none, so every count is pinned.
//! 4. **Pinned saturated trees** — `SATURATED` pins the reduced solve on
//!    saturated BERT and Inception-v3, explored as the end-to-end
//!    benchmark's `paper-ilp` workload explores them: node count, rejected
//!    incumbents, stopping budget and `dag_cost`. Both stop at the solver's
//!    node cap (2 000 000 and 4 000 054 nodes; about 1 s each in release on
//!    a 2-core container), so the pins hold wherever the cap binds before
//!    the 30 s clock. Release only: exploring and solving them in debug
//!    would take minutes.
//!
//! Profile awareness: CI runs this test in *release* (the budget step in
//! the full job), where every assertion is live. Under `cargo test`'s
//! debug profile the solver is roughly an order of magnitude slower, so
//! the budget scales up and the *monolithic oracle* — whose whole point
//! is to be the slow encoding — is skipped for the largest models (it
//! exhausts its node budget before proving optimality in debug; the
//! release run is the proof).
//!
//! The growth recipe (2 iterations, 20k node limit, default scale)
//! mirrors `bench_report` so the numbers asserted here are the numbers
//! `BENCH_egraph.json` archives.

use std::time::{Duration, Instant};
use tensat_bench::{harness_scale, tensat_config};
use tensat_core::{explore, extract_ilp, ExplorationConfig, IlpConfig};
use tensat_ilp::{Limit, Status};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules};

/// Wall-clock budget per model for the *reduced* ILP extraction (scaled
/// up under the debug profile; see the module docs).
const PER_MODEL_BUDGET: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(60)
} else {
    Duration::from_secs(5)
};

/// The branch-and-bound tree each model's solves walk, pinned so a solver
/// change that alters the tree (not only its speed) fails here:
/// `(model, reduced nodes, monolithic nodes, optimal dag_cost)`. Recorded
/// from the sweep-propagation solver that the trail-based one replaced; the
/// two explore identical trees. A node count may differ only when the
/// incumbent check rejected an assignment (`IlpStats::rejected > 0`), which
/// changes the tree by design.
const GOLDEN: [(&str, usize, usize, f64); 7] = [
    ("NasRNN", 49, 23_551, 95.03253333333332),
    ("BERT", 88_623, 976_161, 95.48245333333332),
    ("ResNeXt-50", 0, 55, 56.88874666666666),
    ("NasNet-A", 514, 50_335, 113.823872),
    ("SqueezeNet", 0, 27, 65.37847466666666),
    ("VGG-19", 14, 31, 132.98037333333335),
    ("Inception-v3", 0, 423, 110.80552533333334),
];

/// Monolithic encodings above this size are only solved as the oracle in
/// release builds (in debug the §5.1 encoding of BERT exhausts the
/// solver's node budget without proving optimality — which is the very
/// slowness the reduction pipeline exists to remove).
const DEBUG_ORACLE_VAR_LIMIT: usize = 150;

fn grown(model: &str) -> (TensorEGraph, tensat_egraph::Id) {
    let rules = single_rules();
    let graph = build_benchmark(model, ModelScale::default());
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        &rules,
        &[],
        &ExplorationConfig {
            max_iter: 2,
            node_limit: 20_000,
            search_threads: 1,
            ..Default::default()
        },
    );
    (eg, root)
}

#[test]
fn reduced_ilp_is_optimal_and_within_budget_on_every_benchmark_model() {
    let model = CostModel::default();
    for name in BENCHMARKS {
        let (eg, root) = grown(name);

        let start = Instant::now();
        let reduced = extract_ilp(&eg, root, &model, &IlpConfig::default())
            .unwrap_or_else(|e| panic!("reduced ILP failed on {name}: {e}"));
        let elapsed = start.elapsed();

        let rs = reduced.ilp.as_ref().unwrap();
        assert_eq!(rs.status, Status::Optimal, "{name}: reduced not optimal");
        let &(_, reduced_nodes, monolithic_nodes, optimum) = GOLDEN
            .iter()
            .find(|g| g.0 == *name)
            .expect("every benchmark model has a golden row");
        assert!(
            (reduced.dag_cost - optimum).abs() < 1e-9,
            "{name}: reduced optimum {} != golden {optimum}",
            reduced.dag_cost
        );
        // `Optimal` implies nothing was rejected, so the tree is pinned.
        assert_eq!(
            rs.nodes_explored, reduced_nodes,
            "{name}: the reduced solve walked a different tree"
        );
        assert!(
            (rs.bound - optimum).abs() < 1e-9,
            "{name}: a finished search proves its optimum, bound {}",
            rs.bound
        );

        if cfg!(debug_assertions) && rs.vars_before > DEBUG_ORACLE_VAR_LIMIT {
            eprintln!(
                "[ilp-reduction] {name}: skipping the monolithic oracle in debug \
                 ({} vars; release CI runs it)",
                rs.vars_before
            );
        } else {
            let monolithic = extract_ilp(
                &eg,
                root,
                &model,
                &IlpConfig {
                    reduce: false,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("monolithic ILP failed on {name}: {e}"));
            let ms = monolithic.ilp.as_ref().unwrap();
            assert_eq!(ms.status, Status::Optimal, "{name}: oracle not optimal");
            assert_eq!(
                ms.nodes_explored, monolithic_nodes,
                "{name}: the monolithic solve walked a different tree"
            );
            assert!(
                (reduced.dag_cost - monolithic.dag_cost).abs() < 1e-9,
                "{name}: reduced optimum {} != monolithic optimum {}",
                reduced.dag_cost,
                monolithic.dag_cost
            );
            assert_eq!(
                rs.vars_before, ms.num_vars,
                "{name}: vars_before must equal the monolithic encoding size"
            );
            assert_eq!(
                rs.constraints_before, ms.num_constraints,
                "{name}: constraints_before must equal the monolithic encoding size"
            );
            assert!(rs.num_vars <= ms.num_vars, "{name}: reduction grew vars");
            assert!(
                rs.num_constraints <= ms.num_constraints,
                "{name}: reduction grew constraints"
            );
        }
        assert!(
            elapsed <= PER_MODEL_BUDGET,
            "{name}: reduced ILP extraction took {elapsed:?}, budget {PER_MODEL_BUDGET:?}"
        );
        eprintln!(
            "[ilp-reduction] {name}: {:?} (vars {}/{}, constraints {}/{}, components {}, \
             dag {:.3})",
            elapsed,
            rs.num_vars,
            rs.vars_before,
            rs.num_constraints,
            rs.constraints_before,
            rs.components,
            reduced.dag_cost
        );
    }
}

/// The reduced ILP on saturated e-graphs, pinned where `GOLDEN` cannot
/// reach: `(model, nodes_explored, rejected, limit, dag_cost)`. Each model
/// is explored the way the end-to-end benchmark's `paper-ilp` workload
/// explores it (`harness_scale`, `tensat_config` with `k_multi = 2` for
/// Inception-v3, both rule corpora) and extracted with `tensat_config`'s
/// ILP settings. Both searches stop at the solver's per-component node cap,
/// so these trees are deterministic on any machine that reaches the cap
/// before the 30 s clock. Recorded in release on the row-propagation solver
/// that group propagation replaced; the two walk identical trees.
const SATURATED: [(&str, usize, usize, Limit, f64); 2] = [
    ("BERT", 2_000_000, 0, Limit::Nodes, 97.53045333333333),
    (
        "Inception-v3",
        4_000_054,
        350,
        Limit::Nodes,
        99.93651200000001,
    ),
];

#[test]
fn saturated_ilp_trees_are_pinned() {
    if cfg!(debug_assertions) {
        eprintln!("[ilp-reduction] skipping the saturated trees in debug (release CI runs them)");
        return;
    }
    let (single, multi) = (single_rules(), multi_rules());
    for (name, nodes, rejected, limit, dag_cost) in SATURATED {
        let config = tensat_config(if name == "Inception-v3" { 2 } else { 1 });
        let graph = build_benchmark(name, harness_scale());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        explore(&mut eg, root, &single, &multi, &config.exploration_config());
        let ilp_config = IlpConfig {
            cycle_constraints: config.ilp_cycle_constraints,
            integer_topo_vars: config.ilp_integer_topo_vars,
            time_limit: config.ilp_time_limit,
            ..Default::default()
        };
        let start = Instant::now();
        let outcome = extract_ilp(&eg, root, &config.cost_model, &ilp_config)
            .unwrap_or_else(|e| panic!("reduced ILP failed on {name}: {e}"));
        let stats = outcome.ilp.as_ref().unwrap();
        eprintln!(
            "[ilp-reduction] {name} saturated: {:?}, {stats}, dag {}",
            start.elapsed(),
            outcome.dag_cost
        );
        assert_eq!(stats.nodes_explored, nodes, "{name}: a different tree");
        assert_eq!(stats.rejected, rejected, "{name}: rejected incumbents");
        assert_eq!(stats.limit, Some(limit), "{name}: stopping budget");
        assert!(
            stats.bound <= outcome.dag_cost,
            "{name}: bound above the result"
        );
        assert!(
            (outcome.dag_cost - dag_cost).abs() < 1e-9,
            "{name}: dag_cost {} != pinned {dag_cost}",
            outcome.dag_cost
        );
    }
}
