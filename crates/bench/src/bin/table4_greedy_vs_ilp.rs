//! Regenerates **Table 4**: quality and cost of the three extraction
//! strategies — tree-greedy, global greedy DAG, and ILP — on every
//! benchmark model (k_multi = 1).
//!
//! Each model is explored **once**; the three strategies then extract from
//! the same e-graph through the [`ExtractionStrategy`] seam, so the table
//! isolates extraction quality from exploration noise. For every strategy
//! we report the honest DAG cost (each e-node charged once), the tree cost
//! (shared subgraphs charged per use), and the extraction wall-clock time.
//! The ILP columns also say why its solve stopped: its status, the budget
//! that ended a non-optimal search (`time` or `nodes`), how many solver
//! assignments the well-typedness check rejected, and the proven lower
//! bound on the ILP objective (equal to the optimum when the search
//! finished; the gap to `ilp` otherwise).

use tensat_bench::{harness_scale, write_csv};
use tensat_core::{
    explore, CycleFilter, ExplorationConfig, ExtractionStrategy, GreedyDag, IlpExtraction,
    TreeGreedy,
};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph};
use tensat_models::BENCHMARKS;
use tensat_rules::{multi_rules, single_rules};

fn main() {
    println!("Table 4: extraction strategies on the same explored e-graph (µs, DAG cost)");
    println!(
        "{:<14} {:>10} {:>11} {:>11} {:>11} {:>9} {:>9} {:>9}",
        "model", "original", "tree", "greedy-dag", "ilp", "t_tree", "t_dag", "t_ilp"
    );
    let model = CostModel::default();
    let strategies: [Box<dyn ExtractionStrategy>; 3] = [
        Box::new(TreeGreedy),
        Box::new(GreedyDag),
        Box::new(IlpExtraction::default()),
    ];
    let mut rows = vec![];
    for &name in BENCHMARKS {
        let graph = tensat_models::build_benchmark(name, harness_scale());
        let original = model.graph_cost(&graph);

        // Explore once per model with the paper's headline settings.
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        explore(
            &mut eg,
            root,
            &single_rules(),
            &multi_rules(),
            &ExplorationConfig {
                k_multi: 1,
                max_iter: 15,
                node_limit: 20_000,
                cycle_filter: CycleFilter::Efficient,
                ..Default::default()
            },
        );

        let outcomes: Vec<_> = strategies
            .iter()
            .map(|s| {
                s.extract(&eg, root, &model)
                    .unwrap_or_else(|e| panic!("{} extraction failed on {name}: {e}", s.name()))
            })
            .collect();
        let stats = outcomes[2].ilp.as_ref();
        let ilp_status = stats.map_or_else(|| "-".to_string(), |s| format!("{:?}", s.status));
        let ilp_limit = stats
            .and_then(|s| s.limit)
            .map_or_else(|| "-".to_string(), |l| l.to_string());
        let ilp_rejected = stats.map_or(0, |s| s.rejected);
        let ilp_bound = stats.map_or(f64::NAN, |s| s.bound);
        println!(
            "{:<14} {:>10.2} {:>11.2} {:>11.2} {:>11.2} {:>9.3} {:>9.3} {:>9.3}  {} (limit {}, {} rejected, bound {:.2})",
            name,
            original,
            outcomes[0].dag_cost,
            outcomes[1].dag_cost,
            outcomes[2].dag_cost,
            outcomes[0].time.as_secs_f64(),
            outcomes[1].time.as_secs_f64(),
            outcomes[2].time.as_secs_f64(),
            ilp_status,
            ilp_limit,
            ilp_rejected,
            ilp_bound,
        );
        assert!(
            outcomes[1].dag_cost <= outcomes[0].dag_cost + 1e-9,
            "{name}: greedy-dag ({}) must never be worse than tree-greedy ({})",
            outcomes[1].dag_cost,
            outcomes[0].dag_cost
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.3},{:.3},{:.3},{},{},{},{:.3}",
            name,
            original,
            outcomes[0].dag_cost,
            outcomes[1].dag_cost,
            outcomes[2].dag_cost,
            outcomes[0].time.as_secs_f64(),
            outcomes[1].time.as_secs_f64(),
            outcomes[2].time.as_secs_f64(),
            outcomes[0].tree_cost,
            outcomes[1].tree_cost,
            outcomes[2].tree_cost,
            ilp_status,
            ilp_limit,
            ilp_rejected,
            ilp_bound,
        ));
    }
    write_csv(
        "table4_greedy_vs_ilp.csv",
        "model,original_us,tree_us,greedy_dag_us,ilp_us,tree_time_s,greedy_dag_time_s,ilp_time_s,tree_treecost_us,greedy_dag_treecost_us,ilp_treecost_us,ilp_status,ilp_limit,ilp_rejected,ilp_bound_us",
        &rows,
    );
}
