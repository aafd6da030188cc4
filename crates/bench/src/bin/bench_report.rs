//! `bench-report`: runs the `ematch_*` pure-search micro-benchmarks (the
//! same workload as `benches/egraph.rs`, without the criterion harness)
//! and emits a machine-readable `BENCH_egraph.json` so CI can archive the
//! perf trajectory across PRs.
//!
//! For each benchmark model the e-graph is grown by two exploration
//! iterations (classes hold multiple nodes, as during saturation), then
//! each search variant is timed over repeated full-rule-set sweeps:
//!
//! * `naive`    — the legacy recursive oracle ([`Pattern::search_naive`])
//! * `machine`  — the compiled, op-indexed machine, unguarded
//! * `guarded`  — the machine with the rules' analysis guards (what
//!   production `Rewrite::search` runs; tag-mask guards since the dense
//!   storage refactor)
//! * `parallel4` — the sharded batch driver with 4 threads (single-core
//!   containers measure spawn overhead here, not speedup)
//!
//! The JSON records the best-of-rounds nanoseconds per full-rule-set
//! search, per model and variant, plus the guarded-vs-machine overhead
//! percentage the ROADMAP tracks. A per-model `extraction` section runs
//! the three extraction strategies (tree-greedy, greedy-DAG, ILP) once on
//! the same grown e-graph and records each strategy's extraction time and
//! the DAG/tree cost of its result, so the greedy/ILP quality gap is
//! tracked across PRs alongside the search numbers.
//!
//! A per-model `exploration` section additionally runs each exploration
//! strategy (`saturate`, `guided`, `taso`) from a fresh seed and records
//! its explore time (split into search/apply/rebuild phase timings),
//! final e-node count, node budget, and greedy-DAG extracted cost — the guided strategy runs under a budget 4x below the
//! saturated size, so the report tracks the budgeted-quality acceptance
//! property (guided cost ≤ saturation's tree-greedy cost) across PRs.
//!
//! [`Pattern::search_naive`]: tensat_egraph::Pattern::search_naive

use std::io::Write;
use std::time::Instant;
use tensat_core::{
    explore, extract_greedy_dag, ExplorationConfig, ExplorationMode, ExtractionStrategy, GreedyDag,
    IlpExtraction, TreeGreedy,
};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale};
use tensat_rules::{single_rules, TensorRewrite};

/// Models measured; mirrors `benches/egraph.rs`'s model benches.
const MODELS: &[&str] = &["BERT", "ResNeXt-50"];

/// Interleaved measurement rounds per variant. Variants are sampled
/// round-robin (so slow drift — thermal, background load — hits them
/// equally), each round times a batch of iterations large enough to
/// amortize timer overhead, and the best round is reported: for a
/// CPU-bound microbench the minimum is the noise-robust statistic on a
/// busy single-core container.
const ROUNDS: usize = 9;

/// Target wall-clock per timed batch; iterations per round are derived
/// from a calibration run so tiny workloads are not timer-noise bound.
const TARGET_BATCH_NS: u128 = 4_000_000;

fn grow(model: &str, rules: &[TensorRewrite]) -> (TensorEGraph, tensat_egraph::Id) {
    let graph = build_benchmark(model, ModelScale::default());
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(&graph);
    eg.rebuild();
    explore(
        &mut eg,
        root,
        rules,
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

struct Variant {
    name: &'static str,
    ns_per_search: u128,
    matches: usize,
}

/// A named search routine returning its match count.
type NamedSearch<'a> = (&'static str, Box<dyn FnMut() -> usize + 'a>);

/// Calibration state per variant: routine, best ns/iter so far, match
/// count, iterations per timed batch.
type Calibrated<'a> = (
    &'static str,
    Box<dyn FnMut() -> usize + 'a>,
    u128,
    usize,
    usize,
);

/// Measures a set of search variants with interleaved rounds; returns the
/// best (minimum) per-iteration time for each, in input order. The match
/// count guards against the compiler optimizing a search away and gives
/// the report a sanity datum.
fn measure(variants: Vec<NamedSearch<'_>>) -> Vec<Variant> {
    let mut variants: Vec<Calibrated<'_>> = variants
        .into_iter()
        .map(|(name, mut f)| {
            // Calibrate: one warm-up run doubles as the iteration-count
            // probe.
            let start = Instant::now();
            let matches = std::hint::black_box(f());
            let once = start.elapsed().as_nanos().max(1);
            let iters = (TARGET_BATCH_NS / once).clamp(1, 10_000) as usize;
            (name, f, u128::MAX, matches, iters)
        })
        .collect();
    for _ in 0..ROUNDS {
        for (_, f, best, _, iters) in variants.iter_mut() {
            let start = Instant::now();
            for _ in 0..*iters {
                std::hint::black_box(f());
            }
            let per_iter = start.elapsed().as_nanos() / *iters as u128;
            *best = (*best).min(per_iter);
        }
    }
    variants
        .into_iter()
        .map(|(name, _, best, matches, _)| Variant {
            name,
            ns_per_search: best,
            matches,
        })
        .collect()
}

fn main() {
    let rules = single_rules();
    let mut out = String::from("{\n  \"bench\": \"ematch\",\n  \"rounds\": ");
    out.push_str(&ROUNDS.to_string());
    out.push_str(",\n  \"models\": [\n");

    let cost_model = CostModel::default();
    let strategies: [Box<dyn ExtractionStrategy>; 3] = [
        Box::new(TreeGreedy),
        Box::new(GreedyDag),
        Box::new(IlpExtraction::default()),
    ];

    for (mi, model) in MODELS.iter().enumerate() {
        eprintln!("[bench-report] growing {model} e-graph...");
        let (eg, root) = grow(model, &rules);

        let count = |ms: &[tensat_egraph::SearchMatches]| -> usize {
            ms.iter().map(|m| m.substs.len()).sum()
        };
        let queries: Vec<_> = rules.iter().map(|r| r.searcher_query()).collect();
        let variants = measure(vec![
            (
                "naive",
                Box::new(|| {
                    rules
                        .iter()
                        .map(|r| count(&r.searcher.search_naive(&eg)))
                        .sum()
                }),
            ),
            (
                "machine",
                Box::new(|| rules.iter().map(|r| count(&r.searcher.search(&eg))).sum()),
            ),
            (
                "guarded",
                Box::new(|| rules.iter().map(|r| count(&r.search(&eg))).sum()),
            ),
            (
                "parallel4",
                Box::new(|| {
                    tensat_egraph::search_all(&queries, &eg, 4)
                        .iter()
                        .map(|ms| count(ms))
                        .sum()
                }),
            ),
        ]);

        let machine = variants.iter().find(|v| v.name == "machine").unwrap();
        let guarded = variants.iter().find(|v| v.name == "guarded").unwrap();
        let overhead_pct = (guarded.ns_per_search as f64 - machine.ns_per_search as f64)
            / machine.ns_per_search as f64
            * 100.0;

        eprintln!(
            "[bench-report] {model}: machine {} ns, guarded {} ns ({overhead_pct:+.1}% overhead), \
             naive {} ns, parallel4 {} ns",
            machine.ns_per_search,
            guarded.ns_per_search,
            variants[0].ns_per_search,
            variants[3].ns_per_search,
        );

        out.push_str("    {\n      \"model\": \"");
        out.push_str(model);
        out.push_str("\",\n      \"enodes\": ");
        out.push_str(&eg.total_number_of_nodes().to_string());
        out.push_str(",\n      \"eclasses\": ");
        out.push_str(&eg.number_of_classes().to_string());
        out.push_str(",\n      \"guarded_overhead_pct\": ");
        out.push_str(&format!("{overhead_pct:.2}"));
        out.push_str(",\n      \"variants\": {\n");
        for (vi, v) in variants.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {{ \"ns_per_search\": {}, \"matches\": {} }}{}\n",
                v.name,
                v.ns_per_search,
                v.matches,
                if vi + 1 < variants.len() { "," } else { "" }
            ));
        }
        out.push_str("      },\n      \"extraction\": {\n");
        for (si, strategy) in strategies.iter().enumerate() {
            let outcome = strategy
                .extract(&eg, root, &cost_model)
                .unwrap_or_else(|e| {
                    panic!("{} extraction failed on {model}: {e}", strategy.name())
                });
            eprintln!(
                "[bench-report] {model}: {} extracted in {:.3}s (DAG {:.2} µs, tree {:.2} µs)",
                strategy.name(),
                outcome.time.as_secs_f64(),
                outcome.dag_cost,
                outcome.tree_cost,
            );
            // The ILP strategy additionally reports the solve itself: the
            // problem size before/after the reduction pipeline, what each
            // reduction pass removed, and the solver effort — the numbers
            // the ≥10x extraction-speed target is judged on across PRs.
            let ilp_stats = outcome.ilp.as_ref().map(|s| {
                eprintln!(
                    "[bench-report] {model}: ilp solve {:.3}s, vars {}/{}, constraints {}/{}, \
                     dominated {}, bound-pruned {}, forced {}, components {}, presolve {}, \
                     nodes {}, status {:?}",
                    s.solve_time.as_secs_f64(),
                    s.num_vars,
                    s.vars_before,
                    s.num_constraints,
                    s.constraints_before,
                    s.dominated_pruned,
                    s.bound_pruned,
                    s.forced_classes,
                    s.components,
                    s.presolve_fixed,
                    s.nodes_explored,
                    s.status,
                );
                format!(
                    ", \"solve_time_s\": {:.4}, \"vars\": {}, \"vars_before\": {}, \
                     \"constraints\": {}, \"constraints_before\": {}, \"dominated_pruned\": {}, \
                     \"bound_pruned\": {}, \"forced_classes\": {}, \"components\": {}, \
                     \"presolve_fixed\": {}, \"nodes_explored\": {}, \"status\": \"{:?}\"",
                    s.solve_time.as_secs_f64(),
                    s.num_vars,
                    s.vars_before,
                    s.num_constraints,
                    s.constraints_before,
                    s.dominated_pruned,
                    s.bound_pruned,
                    s.forced_classes,
                    s.components,
                    s.presolve_fixed,
                    s.nodes_explored,
                    s.status,
                )
            });
            out.push_str(&format!(
                "        \"{}\": {{ \"time_s\": {:.4}, \"dag_cost_us\": {:.3}, \"tree_cost_us\": {:.3}{} }}{}\n",
                strategy.name(),
                outcome.time.as_secs_f64(),
                outcome.dag_cost,
                outcome.tree_cost,
                ilp_stats.as_deref().unwrap_or(""),
                if si + 1 < strategies.len() { "," } else { "" }
            ));
        }
        // Per-strategy exploration: each strategy grows a fresh seed of
        // the same model. The saturate run goes deeper than the microbench
        // growth above (more iterations) so the guided strategy's
        // 4x-smaller node budget leaves real headroom over the seed; its
        // final size defines that budget, so the strategies run in order.
        let graph = build_benchmark(model, ModelScale::default());
        let seed_nodes = {
            let mut seed = TensorEGraph::new(TensorAnalysis);
            seed.add_expr(&graph);
            seed.rebuild();
            seed.total_number_of_nodes()
        };
        let mut sat_nodes = seed_nodes;
        let modes = [
            ExplorationMode::Saturate,
            ExplorationMode::Guided,
            ExplorationMode::Taso,
        ];
        out.push_str("      },\n      \"exploration\": {\n");
        for (ei, mode) in modes.iter().enumerate() {
            let budget = match mode {
                ExplorationMode::Guided => (sat_nodes / 4).max(seed_nodes),
                _ => 20_000,
            };
            let mut xeg = TensorEGraph::new(TensorAnalysis);
            let xroot = xeg.add_expr(&graph);
            xeg.rebuild();
            let stats = explore(
                &mut xeg,
                xroot,
                &rules,
                &[],
                &ExplorationConfig {
                    mode: *mode,
                    max_iter: 8,
                    node_limit: budget,
                    search_threads: 1,
                    // Keep the TASO baseline's sequential trajectory short:
                    // this section tracks relative numbers per PR, not the
                    // paper's full 100-iteration baseline run.
                    taso: tensat_core::TasoConfig {
                        iterations: 30,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let extracted = extract_greedy_dag(&xeg, xroot, &cost_model).unwrap_or_else(|e| {
                panic!(
                    "greedy-DAG extraction failed after {} on {model}: {e}",
                    stats.strategy
                )
            });
            eprintln!(
                "[bench-report] {model}: {} explored in {:.3}s ({} e-nodes, budget {budget}, \
                 DAG {:.2} µs)",
                stats.strategy,
                stats.time.as_secs_f64(),
                stats.enodes,
                extracted.dag_cost,
            );
            out.push_str(&format!(
                "        \"{}\": {{ \"explore_time_s\": {:.4}, \"search_time_s\": {:.4}, \"apply_time_s\": {:.4}, \"rebuild_time_s\": {:.4}, \"enodes\": {}, \"node_budget\": {}, \"dag_cost_us\": {:.3}",
                stats.strategy,
                stats.time.as_secs_f64(),
                stats.search_time.as_secs_f64(),
                stats.apply_time.as_secs_f64(),
                stats.rebuild_time.as_secs_f64(),
                stats.enodes,
                budget,
                extracted.dag_cost,
            ));
            if matches!(mode, ExplorationMode::Saturate) {
                sat_nodes = xeg.total_number_of_nodes();
                // The budgeted-quality acceptance target: guided's DAG cost
                // must not exceed tree-greedy extraction from saturation.
                let tree = tensat_core::extract_greedy(&xeg, xroot, &cost_model)
                    .unwrap_or_else(|e| panic!("tree-greedy failed on {model}: {e}"));
                out.push_str(&format!(
                    ", \"tree_greedy_dag_cost_us\": {:.3}",
                    tree.dag_cost
                ));
            }
            out.push_str(if ei + 1 < modes.len() {
                " },\n"
            } else {
                " }\n"
            });
        }
        out.push_str("      }\n    }");
        out.push_str(if mi + 1 < MODELS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    let path = "BENCH_egraph.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_egraph.json");
    f.write_all(out.as_bytes()).expect("write report");
    println!("[bench-report] wrote {path}");
}
