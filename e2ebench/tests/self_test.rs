//! Self-tests of the benchmark: deterministic workloads repeat exactly and
//! do not depend on the seed, optimal ILP answers repeat their counters,
//! and the metric names agree with `BENCHMARK.json` and its limits.
//!
//! Run in release mode (`cargo test --release`): the passes are full
//! harness-scale optimizations.

use tensat_e2ebench::{
    model_order, traced_pass, Call, Layers, Setup, TracedRun, UntracedRun, Workload,
};
use tensat_models::BENCHMARKS;

/// The deterministic per-model outcome of a traced pass, in model order.
fn signature(pass: &[Layers]) -> Vec<(&'static str, [usize; 4], u64)> {
    for l in pass {
        assert!(
            l.call.failure.is_none(),
            "{}: {:?}",
            l.call.model,
            l.call.failure
        );
    }
    let mut sig: Vec<_> = pass
        .iter()
        .map(|l| {
            let s = &l.stats;
            (
                l.call.model,
                [s.enodes, s.eclasses, s.iterations, s.filtered_nodes],
                l.call.optimized_cost.to_bits(),
            )
        })
        .collect();
    sig.sort();
    sig
}

#[test]
fn deterministic_workloads_repeat_under_another_seed() {
    let n = BENCHMARKS.len();
    assert_ne!(model_order(n, 1, 0), model_order(n, 2, 0));
    for workload in [Workload::SaturateDag, Workload::GuidedDag] {
        let setup = Setup::new(workload);
        let first = traced_pass(&setup, &model_order(n, 1, 0));
        let second = traced_pass(&setup, &model_order(n, 2, 0));
        assert_eq!(signature(&first), signature(&second), "{}", workload.name());
    }
}

#[test]
fn optimal_ilp_answers_repeat_their_counters() {
    let setup = Setup::new(Workload::PaperIlp);
    let first = traced_pass(&setup, &model_order(BENCHMARKS.len(), 1, 0));
    // Only answers proven optimal are free of the ILP's wall-clock limit.
    let optimal: Vec<&Layers> = first
        .iter()
        .filter(|l| l.call.ilp_optimal == Some(true))
        .collect();
    assert!(!optimal.is_empty());
    let order: Vec<usize> = optimal
        .iter()
        .rev()
        .map(|l| BENCHMARKS.iter().position(|&b| b == l.call.model).unwrap())
        .collect();
    let second = traced_pass(&setup, &order);
    let counters = |l: &Layers| {
        let s = l.ilp.as_ref().expect("ILP ran");
        [
            s.vars_before,
            s.num_vars,
            s.constraints_before,
            s.num_constraints,
            s.dominated_pruned,
            s.bound_pruned,
            s.forced_classes,
            s.components,
            s.presolve_fixed,
            s.nodes_explored,
        ]
    };
    let first: Vec<Layers> = optimal.into_iter().cloned().collect();
    assert_eq!(signature(&first), signature(&second));
    for a in &first {
        let b = second
            .iter()
            .find(|b| b.call.model == a.call.model)
            .unwrap();
        assert_eq!(b.call.ilp_optimal, Some(true), "{}", a.call.model);
        assert_eq!(counters(a), counters(b), "{}", a.call.model);
    }
}

/// The `"name"` values of one top-level list of `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let list = &json[start..];
    let list = &list[..list.find(']').expect("list closes")];
    list.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    let end_to_end: Vec<String> = UntracedRun::default()
        .metrics()
        .into_iter()
        .map(|m| m.name)
        .collect();
    let traced = TracedRun {
        reference: BENCHMARKS
            .iter()
            .map(|&model| Call {
                model,
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    };
    let per_layer: Vec<String> = traced.metrics().into_iter().map(|m| m.name).collect();

    assert!(!end_to_end.is_empty() && end_to_end.len() <= 16);
    assert!(!per_layer.is_empty() && per_layer.len() <= 128);
    let mut all: Vec<&String> = end_to_end.iter().chain(&per_layer).collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        end_to_end.len() + per_layer.len(),
        "names repeat"
    );

    assert_eq!(listed_names(json, "end_to_end"), end_to_end);
    assert_eq!(listed_names(json, "per_layer"), per_layer);
    for name in listed_names(json, "workloads") {
        assert!(
            Workload::from_name(&name).is_some(),
            "unknown workload {name}"
        );
    }
}
