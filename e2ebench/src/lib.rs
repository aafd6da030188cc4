//! End-to-end benchmark of [`Optimizer::optimize`] on the seven paper
//! models at harness scale (see `README.md` beside this crate).
//!
//! A *pass* optimizes every model of a workload once, in an order permuted
//! by the run's seed. Untraced passes call `Optimizer::optimize` and give
//! the end-to-end metrics ([`UntracedRun`]). A traced pass drives the same
//! pipeline through the public call of each layer — seed, explore, cycle
//! probes, extract — timing each call, and gives the per-layer metrics
//! ([`TracedRun`]).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tensat_bench::{harness_scale, tensat_config};
use tensat_core::{
    explore, extract_greedy_dag, extract_ilp, find_cycles, DescendantsMap, ExplorationMode,
    ExplorationStats, ExtractionMode, IlpConfig, IlpStats, Optimizer, OptimizerConfig,
};
use tensat_ilp::Status;
use tensat_ir::{RecExpr, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, is_well_typed, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules, MultiPatternRule, TensorRewrite};

/// Search and apply threads, pinned here instead of read from the
/// environment.
pub const THREADS: usize = 2;

/// Set-ups timed before every pass of an untraced run and after its last
/// one; `setup_s` is the median of them all. Spreading the samples over
/// the run keeps one burst of host noise from setting the median.
const SETUP_BATCH: usize = 15;

/// The models that grow past 100 e-nodes under saturation: the only ones
/// with a full per-layer row.
const GROWING_MODELS: &[&str] = &["NasRNN", "BERT", "NasNet-A", "Inception-v3"];

/// A named optimizer configuration run over all seven models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturate exploration with ILP extraction (the paper's headline).
    PaperIlp,
    /// Saturate exploration with greedy-DAG extraction.
    SaturateDag,
    /// Guided beam search with greedy-DAG extraction.
    GuidedDag,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperIlp,
        Workload::SaturateDag,
        Workload::GuidedDag,
    ];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIlp => "paper-ilp",
            Workload::SaturateDag => "saturate-dag",
            Workload::GuidedDag => "guided-dag",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every result is independent of machine load. Only the
    /// ILP's wall-clock limit binds on these inputs; the exploration time
    /// limit never does.
    pub fn is_deterministic(self) -> bool {
        self != Workload::PaperIlp
    }

    /// `tensat_config` as the paper harness uses it (`k_multi = 2` for
    /// Inception-v3, as in `table1`), with this workload's strategies and
    /// the thread counts pinned to [`THREADS`].
    pub fn config(self, model: &str) -> OptimizerConfig {
        let k_multi = if model == "Inception-v3" { 2 } else { 1 };
        let (exploration, extraction) = match self {
            Workload::PaperIlp => (ExplorationMode::Saturate, ExtractionMode::Ilp),
            Workload::SaturateDag => (ExplorationMode::Saturate, ExtractionMode::GreedyDag),
            Workload::GuidedDag => (ExplorationMode::Guided, ExtractionMode::GreedyDag),
        };
        OptimizerConfig {
            search_threads: THREADS,
            apply_threads: Some(THREADS),
            exploration,
            extraction,
            ..tensat_config(k_multi)
        }
    }
}

/// One input graph with the optimizer configured for it.
pub struct Model {
    /// Benchmark name, as in [`BENCHMARKS`].
    pub name: &'static str,
    /// The input graph.
    pub graph: RecExpr<TensorLang>,
    /// The optimizer the workload runs on this graph.
    pub optimizer: Optimizer,
}

/// Everything a pass needs, built before any timing of `optimize`.
pub struct Setup {
    /// Single-pattern rule corpus (the traced pass explores with it).
    pub single: Vec<TensorRewrite>,
    /// Multi-pattern rule corpus.
    pub multi: Vec<MultiPatternRule>,
    /// The seven models in [`BENCHMARKS`] order.
    pub models: Vec<Model>,
    /// Time spent building the rule corpus.
    pub rules_time: Duration,
    /// Time spent building the input graphs.
    pub models_time: Duration,
    /// Whole set-up time: rules, input graphs and optimizers.
    pub time: Duration,
}

impl Setup {
    /// Builds the rule corpus, the input graphs and one optimizer per
    /// model.
    pub fn new(workload: Workload) -> Setup {
        let start = Instant::now();
        let single = single_rules();
        let multi = multi_rules();
        let rules_time = start.elapsed();
        let graphs_start = Instant::now();
        let graphs: Vec<_> = BENCHMARKS
            .iter()
            .map(|&name| (name, build_benchmark(name, harness_scale())))
            .collect();
        let models_time = graphs_start.elapsed();
        let models = graphs
            .into_iter()
            .map(|(name, graph)| Model {
                name,
                graph,
                optimizer: Optimizer::with_rules(
                    workload.config(name),
                    single.clone(),
                    multi.clone(),
                ),
            })
            .collect();
        Setup {
            single,
            multi,
            models,
            rules_time,
            models_time,
            time: start.elapsed(),
        }
    }

    /// Input e-nodes summed over the models.
    pub fn input_nodes(&self) -> usize {
        self.models.iter().map(|m| m.graph.len()).sum()
    }
}

/// The order in which pass `pass` of a run seeded with `seed` visits `n`
/// models: a Fisher–Yates shuffle driven by splitmix64.
pub fn model_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The outcome of one `optimize` call, or of its traced equivalent.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Benchmark name.
    pub model: &'static str,
    /// Wall time of the call.
    pub time: Duration,
    /// Cost of the input graph (µs).
    pub original_cost: f64,
    /// Cost of the optimized graph (µs).
    pub optimized_cost: f64,
    /// Whether the ILP proved its answer optimal; `None` without ILP.
    pub ilp_optimal: Option<bool>,
    /// Why the call failed, if it did.
    pub failure: Option<String>,
}

impl Call {
    /// `original / optimized` cost, the paper's speedup ratio.
    pub fn speedup_ratio(&self) -> f64 {
        self.original_cost / self.optimized_cost
    }
}

/// The output check of every call: the optimized graph is well-typed, its
/// reported cost is a positive time, is what the cost model charges for
/// it, and is no worse than the input's. Values are not checked: the
/// repository has no tensor interpreter yet.
fn check_output(
    model: &Model,
    graph: &RecExpr<TensorLang>,
    optimized_cost: f64,
    original_cost: f64,
) -> Result<(), String> {
    if !is_well_typed(graph) {
        return Err("optimized graph is not well-typed".into());
    }
    let charged = model
        .optimizer
        .config()
        .cost_model
        .graph_cost_composite(graph)
        .latency;
    if !(optimized_cost.is_finite() && optimized_cost > 0.0) {
        return Err(format!(
            "optimized cost {optimized_cost} is not a positive time"
        ));
    }
    if charged != optimized_cost {
        return Err(format!(
            "reported cost {optimized_cost} but the graph costs {charged}"
        ));
    }
    if optimized_cost > original_cost {
        return Err(format!(
            "optimized cost {optimized_cost} exceeds original {original_cost}"
        ));
    }
    Ok(())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// One untraced `Optimizer::optimize` call, checked.
fn optimize_call(model: &Model) -> Call {
    let start = Instant::now();
    let result = guarded(|| {
        model
            .optimizer
            .optimize(&model.graph)
            .map_err(|e| format!("optimize returned {e:?}"))
    });
    let mut call = Call {
        model: model.name,
        time: start.elapsed(),
        ..Default::default()
    };
    match result {
        Ok(r) => {
            call.original_cost = r.original_cost;
            call.optimized_cost = r.optimized_cost;
            call.ilp_optimal = r.stats.ilp.map(|s| s.status == Status::Optimal);
            call.failure =
                check_output(model, &r.optimized_graph, r.optimized_cost, r.original_cost).err();
        }
        Err(e) => call.failure = Some(e),
    }
    call
}

/// One untraced pass over the models in `order`.
fn pass(setup: &Setup, order: &[usize]) -> Vec<Call> {
    order
        .iter()
        .map(|&i| optimize_call(&setup.models[i]))
        .collect()
}

/// The per-layer record of one model in a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The call as a whole; `time` spans every layer below.
    pub call: Call,
    /// `TensorEGraph::new` + `add_expr` + `rebuild`.
    pub seed: Duration,
    /// `explore`.
    pub explore: Duration,
    /// The statistics `explore` returned.
    pub stats: ExplorationStats,
    /// One `DescendantsMap::compute` on the final e-graph.
    pub descendants: Duration,
    /// Cycles `find_cycles` reports on the final e-graph.
    pub cycles_remaining: usize,
    /// The extraction the workload uses.
    pub extract: Duration,
    /// `extract_greedy_dag`, run on every workload as the ILP's incumbent.
    pub greedy_dag: Duration,
    /// ILP statistics when the ILP ran.
    pub ilp: Option<IlpStats>,
}

/// Drives `Optimizer::optimize`'s pipeline for one model through each
/// layer's public call, timing every call.
fn trace_pipeline(setup: &Setup, model: &Model, layers: &mut Layers) -> Result<(), String> {
    let start = Instant::now();
    let config = model.optimizer.config();
    let cost_model = &config.cost_model;
    let original = cost_model.graph_cost_composite(&model.graph);

    let t = Instant::now();
    let mut egraph = TensorEGraph::new(TensorAnalysis);
    let root = egraph.add_expr(&model.graph);
    egraph.rebuild();
    layers.seed = t.elapsed();

    let t = Instant::now();
    layers.stats = explore(
        &mut egraph,
        root,
        &setup.single,
        &setup.multi,
        &config.exploration_config(),
    );
    layers.explore = t.elapsed();

    let t = Instant::now();
    black_box(DescendantsMap::compute(&egraph));
    layers.descendants = t.elapsed();
    layers.cycles_remaining = find_cycles(&egraph, root).len();

    let t = Instant::now();
    let greedy = extract_greedy_dag(&egraph, root, cost_model).map_err(|e| format!("{e:?}"))?;
    layers.greedy_dag = t.elapsed();
    let outcome = match config.extraction {
        ExtractionMode::GreedyDag => {
            layers.extract = layers.greedy_dag;
            greedy
        }
        ExtractionMode::Ilp => {
            let ilp_config = IlpConfig {
                cycle_constraints: config.ilp_cycle_constraints,
                integer_topo_vars: config.ilp_integer_topo_vars,
                time_limit: config.ilp_time_limit,
                ..Default::default()
            };
            let t = Instant::now();
            let outcome = extract_ilp(&egraph, root, cost_model, &ilp_config)
                .map_err(|e| format!("{e:?}"))?;
            layers.extract = t.elapsed();
            outcome
        }
        other => return Err(format!("no traced pipeline for {other:?}")),
    };
    layers.ilp = outcome.ilp;
    // Never worse than the input, decided as `Optimizer::optimize` does.
    let (graph, cost) = if outcome.cost.total_order(&original).is_le() {
        (outcome.expr, outcome.cost)
    } else {
        (model.graph.clone(), original)
    };
    layers.call.time = start.elapsed();
    layers.call.original_cost = original.latency;
    layers.call.optimized_cost = cost.latency;
    layers.call.ilp_optimal = layers.ilp.as_ref().map(|s| s.status == Status::Optimal);
    check_output(model, &graph, cost.latency, original.latency)?;
    if layers.cycles_remaining != 0 {
        return Err(format!(
            "{} cycles remain in the final e-graph",
            layers.cycles_remaining
        ));
    }
    Ok(())
}

/// One traced pass over the models in `order`.
pub fn traced_pass(setup: &Setup, order: &[usize]) -> Vec<Layers> {
    order
        .iter()
        .map(|&i| {
            let model = &setup.models[i];
            let mut layers = Layers::default();
            layers.call.model = model.name;
            layers.call.failure = guarded(|| trace_pipeline(setup, model, &mut layers)).err();
            layers
        })
        .collect()
}

/// Marks every call in `calls` whose optimized cost differs from
/// `reference`'s call on the same model. Used on deterministic workloads,
/// where any difference is a bug.
fn check_same_costs<'a>(reference: &[Call], calls: impl IntoIterator<Item = &'a mut Call>) {
    for call in calls {
        let Some(expected) = reference.iter().find(|r| r.model == call.model) else {
            continue;
        };
        if call.failure.is_none() && call.optimized_cost != expected.optimized_cost {
            call.failure = Some(format!(
                "optimized cost {} differs from {} in another pass",
                call.optimized_cost, expected.optimized_cost
            ));
        }
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for none.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(geomean(original / optimized) − 1) × 100` over the calls that passed
/// their check.
fn speedup_geomean_pct(calls: &[Call]) -> f64 {
    let ok: Vec<&Call> = calls.iter().filter(|c| c.failure.is_none()).collect();
    if ok.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ok.iter().map(|c| c.speedup_ratio().ln()).sum();
    ((log_sum / ok.len() as f64).exp() - 1.0) * 100.0
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn failures<'a>(calls: impl IntoIterator<Item = &'a Call>) -> usize {
    calls.into_iter().filter(|c| c.failure.is_some()).count()
}

/// The record of an untraced run: passes until the run's time is up, with
/// batches of timed set-ups between them.
#[derive(Debug, Clone, Default)]
pub struct UntracedRun {
    /// Wall time of each set-up.
    pub setup_times: Vec<Duration>,
    /// The calls of each pass.
    pub passes: Vec<Vec<Call>>,
    /// The process's resident-set high-water mark (MB).
    pub peak_rss_mb: f64,
}

impl UntracedRun {
    /// Runs passes until `seconds` have passed (at least one pass), with a
    /// batch of [`SETUP_BATCH`] timed set-ups before each pass and after
    /// the last.
    pub fn run(workload: Workload, seed: u64, seconds: f64) -> UntracedRun {
        let mut setup_times = vec![];
        let mut time_setups = || {
            for _ in 0..SETUP_BATCH {
                setup_times.push(Setup::new(workload).time);
            }
        };
        let setup = Setup::new(workload);
        let start = Instant::now();
        let mut passes: Vec<Vec<Call>> = vec![];
        while passes.is_empty() || secs(start.elapsed()) < seconds {
            time_setups();
            let order = model_order(setup.models.len(), seed, passes.len() as u64);
            let mut calls = pass(&setup, &order);
            if workload.is_deterministic() {
                if let Some(first) = passes.first() {
                    check_same_costs(first, &mut calls);
                }
            }
            passes.push(calls);
        }
        time_setups();
        UntracedRun {
            setup_times,
            passes,
            peak_rss_mb: peak_rss_mb(),
        }
    }

    /// Summed `optimize` wall time of each pass, in seconds.
    pub fn pass_times(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.iter().map(|c| secs(c.time)).sum())
            .collect()
    }

    /// Calls attempted.
    pub fn attempted(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// Calls that failed.
    pub fn failed(&self) -> usize {
        failures(self.passes.iter().flatten())
    }

    /// The end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let pass_times = self.pass_times();
        let speedups: Vec<f64> = self.passes.iter().map(|p| speedup_geomean_pct(p)).collect();
        let setup_times: Vec<f64> = self.setup_times.iter().copied().map(secs).collect();
        vec![
            metric("optimize_s", median(&pass_times), "s"),
            metric("speedup_geomean_pct", median(&speedups), "%"),
            metric(
                "ok_frac",
                1.0 - self.failed() as f64 / self.attempted().max(1) as f64,
                "ratio",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("setup_s", median(&setup_times), "s"),
        ]
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or NaN
/// where `/proc` does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// The record of a traced run: one set-up, one untraced reference pass,
/// then one traced pass.
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    /// Time spent building the rule corpus.
    pub rules_time: Duration,
    /// Time spent building the input graphs.
    pub models_time: Duration,
    /// Input e-nodes summed over the models.
    pub input_nodes: usize,
    /// The untraced reference pass.
    pub reference: Vec<Call>,
    /// The traced pass.
    pub traced: Vec<Layers>,
}

impl TracedRun {
    /// Sets up once, runs the reference pass, then the traced pass (in
    /// another model order). On deterministic workloads each traced cost
    /// must equal the reference's.
    pub fn run(workload: Workload, seed: u64) -> TracedRun {
        let setup = Setup::new(workload);
        let n = setup.models.len();
        let reference = pass(&setup, &model_order(n, seed, 0));
        let mut traced = traced_pass(&setup, &model_order(n, seed, 1));
        if workload.is_deterministic() {
            check_same_costs(&reference, traced.iter_mut().map(|l| &mut l.call));
        }
        TracedRun {
            rules_time: setup.rules_time,
            models_time: setup.models_time,
            input_nodes: setup.input_nodes(),
            reference,
            traced,
        }
    }

    /// Calls attempted, reference and traced.
    pub fn attempted(&self) -> usize {
        self.reference.len() + self.traced.len()
    }

    /// Calls that failed, reference and traced.
    pub fn failed(&self) -> usize {
        failures(
            self.reference
                .iter()
                .chain(self.traced.iter().map(|l| &l.call)),
        )
    }

    /// The per-layer metrics: totals over the models, the ratios derived
    /// from them, then per-model rows.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut totals = layer_values(&Layers::default());
        for layers in &self.traced {
            for (total, (_, value, _)) in totals.iter_mut().zip(layer_values(layers)) {
                total.1 += value;
            }
        }
        let total = |name: &str| totals.iter().find(|t| t.0 == name).map_or(0.0, |t| t.1);
        let ratio = |a: &str, b: f64| if b > 0.0 { total(a) / b } else { 0.0 };
        let ilp_calls = self.traced.iter().filter(|l| l.ilp.is_some()).count() as f64;
        let traced_s: f64 = self.traced.iter().map(|l| secs(l.call.time)).sum();
        let reference_s: f64 = self.reference.iter().map(|c| secs(c.time)).sum();

        let mut out = vec![
            metric("rules.build_s", secs(self.rules_time), "s"),
            metric("models.build_s", secs(self.models_time), "s"),
            metric("models.input_nodes", self.input_nodes as f64, "count"),
        ];
        out.extend(
            totals
                .iter()
                .map(|&(name, value, unit)| metric(name, value, unit)),
        );
        out.extend([
            metric(
                "explore.enodes_per_s",
                ratio("explore.enodes", total("explore.s")),
                "1/s",
            ),
            metric(
                "cycles.filtered_frac",
                ratio("cycles.filtered_nodes", total("explore.enodes")),
                "ratio",
            ),
            metric(
                "ilp.vars_kept_frac",
                ratio("ilp.vars_after", total("ilp.vars_before")),
                "ratio",
            ),
            metric("ilp.optimal_frac", ratio("ilp.optimal", ilp_calls), "ratio"),
            metric("trace.overhead_s", traced_s - reference_s, "s"),
        ]);
        for &name in BENCHMARKS {
            let call = self.reference.iter().find(|c| c.model == name);
            let optimize_s = call.map_or(0.0, |c| secs(c.time));
            let speedup_pct = call
                .filter(|c| c.failure.is_none())
                .map_or(0.0, |c| (c.speedup_ratio() - 1.0) * 100.0);
            out.push(metric(format!("{name}.optimize_s"), optimize_s, "s"));
            out.push(metric(format!("{name}.speedup_pct"), speedup_pct, "%"));
            if !GROWING_MODELS.contains(&name) {
                continue;
            }
            let layers = self.traced.iter().find(|l| l.call.model == name);
            let values = layer_values(layers.unwrap_or(&Layers::default()));
            for (suffix, value, unit) in values {
                if MODEL_ROW.contains(&suffix) {
                    out.push(metric(format!("{name}.{suffix}"), value, unit));
                }
            }
        }
        out
    }
}

/// The layer values reported per model for [`GROWING_MODELS`].
const MODEL_ROW: &[&str] = &[
    "explore.s",
    "explore.search_s",
    "explore.apply_s",
    "explore.rebuild_s",
    "explore.unattributed_s",
    "explore.iterations",
    "explore.enodes",
    "extract.s",
    "ilp.reduce_s",
    "ilp.solve_s",
    "ilp.bnb_nodes",
    "ilp.vars_after",
    "ilp.optimal",
];

/// One model's additive layer values as `(name, value, unit)`; the
/// per-layer totals sum them over the models.
fn layer_values(l: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    let s = &l.stats;
    let phases = secs(s.search_time + s.apply_time + s.rebuild_time);
    let ilp = |f: &dyn Fn(&IlpStats) -> f64| l.ilp.as_ref().map_or(0.0, f);
    vec![
        ("seed.s", secs(l.seed), "s"),
        ("explore.s", secs(l.explore), "s"),
        ("explore.search_s", secs(s.search_time), "s"),
        ("explore.apply_s", secs(s.apply_time), "s"),
        ("explore.rebuild_s", secs(s.rebuild_time), "s"),
        // Today mostly the per-iteration `DescendantsMap::compute`.
        ("explore.unattributed_s", secs(l.explore) - phases, "s"),
        ("explore.iterations", s.iterations as f64, "count"),
        ("explore.enodes", s.enodes as f64, "count"),
        ("explore.eclasses", s.eclasses as f64, "count"),
        ("cycles.filtered_nodes", s.filtered_nodes as f64, "count"),
        ("cycles.descendants_final_s", secs(l.descendants), "s"),
        ("cycles.remaining", l.cycles_remaining as f64, "count"),
        ("extract.s", secs(l.extract), "s"),
        ("extract.greedy_dag_s", secs(l.greedy_dag), "s"),
        // The reduction pipeline and the greedy-DAG warm start inside
        // `extract_ilp`.
        (
            "ilp.reduce_s",
            ilp(&|i| secs(l.extract) - secs(i.solve_time)),
            "s",
        ),
        ("ilp.vars_before", ilp(&|i| i.vars_before as f64), "count"),
        ("ilp.vars_after", ilp(&|i| i.num_vars as f64), "count"),
        (
            "ilp.constraints_before",
            ilp(&|i| i.constraints_before as f64),
            "count",
        ),
        (
            "ilp.constraints_after",
            ilp(&|i| i.num_constraints as f64),
            "count",
        ),
        (
            "ilp.dominated_pruned",
            ilp(&|i| i.dominated_pruned as f64),
            "count",
        ),
        ("ilp.bound_pruned", ilp(&|i| i.bound_pruned as f64), "count"),
        (
            "ilp.forced_classes",
            ilp(&|i| i.forced_classes as f64),
            "count",
        ),
        ("ilp.components", ilp(&|i| i.components as f64), "count"),
        ("ilp.solve_s", ilp(&|i| secs(i.solve_time)), "s"),
        (
            "ilp.presolve_fixed",
            ilp(&|i| i.presolve_fixed as f64),
            "count",
        ),
        ("ilp.bnb_nodes", ilp(&|i| i.nodes_explored as f64), "count"),
        (
            "ilp.optimal",
            ilp(&|i| f64::from(u8::from(i.status == Status::Optimal))),
            "count",
        ),
    ]
}
