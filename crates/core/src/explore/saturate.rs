//! The saturate-all strategy: the paper's exploration loop (Algorithm 1)
//! run through the seam.

use super::context::ExplorationContext;
use super::{ExplorationStats, ExplorationStrategy};
use tensat_ir::TensorEGraph;

/// Saturate-all exploration: every iteration searches every rule against
/// the whole e-graph and applies all admissible matches, until saturation
/// or a limit is reached. Bit-identical to the pre-seam monolithic
/// `explore()` — [`legacy::explore_monolithic`](super::legacy) keeps its
/// control flow verbatim as the differential oracle, and
/// `crates/bench/tests/exploration_strategies.rs` proves the equivalence
/// on random e-graphs and every `BENCHMARKS` model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saturate;

impl ExplorationStrategy for Saturate {
    fn name(&self) -> &'static str {
        "saturate"
    }

    fn run(&self, egraph: &mut TensorEGraph, ctx: &ExplorationContext<'_>) -> ExplorationStats {
        let mut stats = ExplorationStats::default();
        egraph.rebuild();
        for iter in 0..ctx.config().max_iter {
            if ctx.over_budget(egraph) {
                break;
            }
            let changed = ctx.run_iteration(egraph, iter, &mut stats);
            if !changed {
                stats.saturated = true;
                break;
            }
        }
        ctx.finish(egraph, &mut stats);
        stats
    }
}
