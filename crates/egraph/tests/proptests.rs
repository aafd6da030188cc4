//! Property-based tests of the e-graph invariants: hash-consing,
//! congruence closure, and extraction soundness under random workloads.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tensat_egraph::doctest_lang::SimpleMath as Math;
use tensat_egraph::{
    search_all, search_all_with_threshold, search_one, stage_matches_parallel, Analysis, AstSize,
    DidMerge, EGraph, ENodeOrVar, Extractor, Guard, GuardedProgram, Id, Language, Pattern, RecExpr,
    Rewrite, SearchMatches, Subst, Symbol, Var,
};

/// A random expression generator: a sequence of build steps referencing
/// earlier nodes only.
#[derive(Debug, Clone)]
enum Step {
    Num(i64),
    Sym(u8),
    Add(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
}

fn steps_strategy(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-4i64..=4).prop_map(Step::Num),
            (0u8..4).prop_map(Step::Sym),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Mul(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Div(a, b)),
        ],
        1..max_len,
    )
}

fn build_expr(steps: &[Step]) -> RecExpr<Math> {
    let mut e = RecExpr::default();
    for (i, step) in steps.iter().enumerate() {
        let pick = |r: usize| Id::from(if i == 0 { 0 } else { r % i });
        let node = match step {
            Step::Num(n) => Math::Num(*n),
            Step::Sym(s) => Math::Sym(Symbol::new(format!("s{s}"))),
            Step::Add(a, b) if i > 0 => Math::Add([pick(*a), pick(*b)]),
            Step::Mul(a, b) if i > 0 => Math::Mul([pick(*a), pick(*b)]),
            Step::Div(a, b) if i > 0 => Math::Div([pick(*a), pick(*b)]),
            // Fall back to a leaf when there is no earlier node to refer to.
            _ => Math::Num(0),
        };
        e.add(node);
    }
    e
}

/// A random pattern generator, mirroring [`Step`]: a linear build sequence
/// whose nodes reference earlier nodes only. Variables come from a pool of
/// three names, so repeated draws produce non-linear patterns like
/// `(+ ?x ?x)` naturally.
#[derive(Debug, Clone)]
enum PatStep {
    Var(u8),
    Num(i64),
    Sym(u8),
    Add(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
}

fn pattern_strategy(max_len: usize) -> impl Strategy<Value = Vec<PatStep>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3).prop_map(PatStep::Var),
            (-4i64..=4).prop_map(PatStep::Num),
            (0u8..4).prop_map(PatStep::Sym),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Add(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Mul(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| PatStep::Div(a, b)),
        ],
        1..max_len,
    )
}

fn build_pattern(steps: &[PatStep]) -> Pattern<Math> {
    let mut ast = RecExpr::default();
    for (i, step) in steps.iter().enumerate() {
        let pick = |r: usize| Id::from(if i == 0 { 0 } else { r % i });
        let node = match step {
            PatStep::Var(v) => ENodeOrVar::Var(Var::new(format!("v{v}"))),
            PatStep::Num(n) => ENodeOrVar::ENode(Math::Num(*n)),
            PatStep::Sym(s) => ENodeOrVar::ENode(Math::Sym(Symbol::new(format!("s{s}")))),
            PatStep::Add(a, b) if i > 0 => ENodeOrVar::ENode(Math::Add([pick(*a), pick(*b)])),
            PatStep::Mul(a, b) if i > 0 => ENodeOrVar::ENode(Math::Mul([pick(*a), pick(*b)])),
            PatStep::Div(a, b) if i > 0 => ENodeOrVar::ENode(Math::Div([pick(*a), pick(*b)])),
            _ => ENodeOrVar::Var(Var::new("v0")),
        };
        ast.add(node);
    }
    Pattern::new(ast)
}

/// Normalizes a match list into a canonical set representation: canonical
/// class id -> set of substitutions, each a sorted list of canonical
/// `(variable, class)` bindings. Two searches are equivalent iff their
/// normal forms are equal.
type NormalMatches = BTreeMap<Id, BTreeSet<Vec<(Var, Id)>>>;

fn normalize(eg: &EGraph<Math, ()>, matches: &[SearchMatches]) -> NormalMatches {
    let mut out: NormalMatches = BTreeMap::new();
    for m in matches {
        let substs = out.entry(eg.find(m.eclass)).or_default();
        for s in &m.substs {
            let mut bindings: Vec<(Var, Id)> = s.iter().map(|(v, id)| (v, eg.find(id))).collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

proptest! {
    /// Differential test of the tentpole: the compiled, op-indexed
    /// e-matching machine and the legacy recursive matcher must return
    /// identical match sets (same classes, same substitution sets) on
    /// random e-graphs and random patterns — including non-linear patterns,
    /// which the small variable pool generates frequently.
    #[test]
    fn machine_search_equals_naive_search(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        let pattern = build_pattern(&pat_steps);
        let machine = pattern.search(&eg);
        let naive = pattern.search_naive(&eg);
        prop_assert_eq!(normalize(&eg, &machine), normalize(&eg, &naive));
    }

    /// Same differential property with a random subset of e-nodes filtered:
    /// both matchers must skip filtered nodes identically (the machine's
    /// ground-term `Lookup` instruction checks the filter set node by node).
    #[test]
    fn machine_search_equals_naive_search_with_filtered_nodes(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        filter_picks in prop::collection::vec(any::<usize>(), 0..8)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let all_nodes: Vec<Math> = eg
            .classes()
            .flat_map(|c| c.iter().cloned())
            .collect();
        for pick in filter_picks {
            let node = all_nodes[pick % all_nodes.len()].clone();
            eg.filter_node(&node);
        }
        let pattern = build_pattern(&pat_steps);
        let machine = pattern.search(&eg);
        let naive = pattern.search_naive(&eg);
        prop_assert_eq!(normalize(&eg, &machine), normalize(&eg, &naive));
    }

    /// Differential test of the parallel search driver against the
    /// sequential machine, mirroring the machine-vs-naive oracle above:
    /// on random e-graphs (with random unions and a random filter set) and
    /// random patterns — including non-linear ones — the batch driver
    /// forced onto its worker path must return *bit-identical* match lists (same class order, same
    /// substitution order) for every thread count 1..=8, not merely
    /// set-equal ones.
    #[test]
    fn parallel_search_is_bit_identical_to_sequential(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        n_threads in 1usize..=8,
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        filter_picks in prop::collection::vec(any::<usize>(), 0..6)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        let all_nodes: Vec<Math> = eg.classes().flat_map(|c| c.iter().cloned()).collect();
        for pick in filter_picks {
            let node = all_nodes[pick % all_nodes.len()].clone();
            eg.filter_node(&node);
        }
        let pattern = build_pattern(&pat_steps);
        let sequential = pattern.search(&eg);
        let parallel =
            search_all_with_threshold(&[(pattern.program(), &[])], &eg, n_threads, 0)
                .remove(0);
        prop_assert_eq!(&sequential, &parallel);
        // And therefore also set-equal to the naive oracle.
        prop_assert_eq!(normalize(&eg, &parallel), normalize(&eg, &pattern.search_naive(&eg)));
    }

    /// The batch driver (one shared work queue across many patterns) must
    /// hand each pattern exactly the match list its standalone sequential
    /// search produces, in pattern order.
    #[test]
    fn batch_parallel_search_matches_per_pattern_search(
        steps in steps_strategy(40),
        pats in prop::collection::vec(pattern_strategy(10), 1..4),
        n_threads in 1usize..=8
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let patterns: Vec<Pattern<Math>> = pats.iter().map(|p| build_pattern(p)).collect();
        let queries: Vec<_> = patterns
            .iter()
            .map(|p| (p.program(), &[] as &[Guard<()>]))
            .collect();
        let batch = search_all(&queries, &eg, n_threads);
        prop_assert_eq!(batch.len(), patterns.len());
        for (pattern, got) in patterns.iter().zip(&batch) {
            prop_assert_eq!(&pattern.search(&eg), got);
        }
    }

    /// The spawn-threshold dispatch in the batch driver must be invisible:
    /// whatever path the candidate count selects, the result must be
    /// bit-identical to both the forced-parallel driver (threshold 0) and
    /// the forced-sequential fallback (threshold `usize::MAX`). The small
    /// random e-graphs here always fall below
    /// `PARALLEL_SEARCH_SPAWN_THRESHOLD`, so the default dispatch takes the
    /// sequential fallback while the threshold-0 run still exercises the
    /// real worker spawn/merge machinery — making this the differential
    /// test between the two.
    #[test]
    fn spawn_threshold_dispatch_is_bit_identical(
        steps in steps_strategy(40),
        pats in prop::collection::vec(pattern_strategy(10), 1..4),
        n_threads in 2usize..=8
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let patterns: Vec<Pattern<Math>> = pats.iter().map(|p| build_pattern(p)).collect();
        let queries: Vec<_> = patterns
            .iter()
            .map(|p| (p.program(), &[] as &[Guard<()>]))
            .collect();
        let dispatched = search_all(&queries, &eg, n_threads);
        let forced_parallel = search_all_with_threshold(&queries, &eg, n_threads, 0);
        let forced_sequential =
            search_all_with_threshold(&queries, &eg, n_threads, usize::MAX);
        prop_assert_eq!(&dispatched, &forced_parallel);
        prop_assert_eq!(&dispatched, &forced_sequential);
        for (pattern, got) in patterns.iter().zip(&dispatched) {
            prop_assert_eq!(&pattern.search(&eg), got);
        }
    }

}

// ---------------------------------------------------------------------------
// Staged-parallel apply + rebuild
// ---------------------------------------------------------------------------

/// Builds a rewrite whose applier only uses variables bound by the
/// searcher: applier variable draws are remapped into the searcher's
/// variable pool (or degrade to a literal leaf when the searcher binds
/// nothing), so `Rewrite::new`'s unbound-variable check always passes.
fn build_rewrite(search_steps: &[PatStep], apply_steps: &[PatStep]) -> Rewrite<Math, ()> {
    let searcher = build_pattern(search_steps);
    // Only variables *reachable from the pattern root* are bound by a
    // match: the linear generator can leave dead nodes in the AST, and
    // `Pattern::vars` reports those too, so walk from the root instead.
    let lhs_vars = {
        let nodes: Vec<&ENodeOrVar<Math>> = searcher.ast.iter().map(|(_, n)| n).collect();
        let mut live = vec![false; nodes.len()];
        let mut stack = vec![nodes.len() - 1];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut live[i], true) {
                continue;
            }
            if let ENodeOrVar::ENode(n) = nodes[i] {
                n.for_each(|c| stack.push(usize::from(c)));
            }
        }
        let mut vars: Vec<Var> = vec![];
        for (i, node) in nodes.iter().enumerate() {
            if let ENodeOrVar::Var(v) = node {
                if live[i] && !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    };
    let mut ast = RecExpr::default();
    for (i, step) in apply_steps.iter().enumerate() {
        let pick = |r: usize| Id::from(if i == 0 { 0 } else { r % i });
        let node = match step {
            PatStep::Var(v) if !lhs_vars.is_empty() => {
                ENodeOrVar::Var(lhs_vars[*v as usize % lhs_vars.len()])
            }
            PatStep::Var(_) => ENodeOrVar::ENode(Math::Num(0)),
            PatStep::Num(n) => ENodeOrVar::ENode(Math::Num(*n)),
            PatStep::Sym(s) => ENodeOrVar::ENode(Math::Sym(Symbol::new(format!("s{s}")))),
            PatStep::Add(a, b) if i > 0 => ENodeOrVar::ENode(Math::Add([pick(*a), pick(*b)])),
            PatStep::Mul(a, b) if i > 0 => ENodeOrVar::ENode(Math::Mul([pick(*a), pick(*b)])),
            PatStep::Div(a, b) if i > 0 => ENodeOrVar::ENode(Math::Div([pick(*a), pick(*b)])),
            _ => ENodeOrVar::ENode(Math::Num(0)),
        };
        ast.add(node);
    }
    Rewrite::new("r", searcher, Pattern::new(ast))
}

proptest! {
    /// The staged-apply acceptance property: running rounds of
    /// search-then-apply over random e-graphs (random seed expression,
    /// unions, and filtered nodes) with the staged-parallel path —
    /// [`stage_matches_parallel`] into [`EGraph::commit_log`] at 1–8
    /// threads — must be *bit-identical* to the sequential in-place
    /// [`Rewrite::apply_capped`] loop over the same matches: the two
    /// e-graphs end every round with equal id spaces and union-find
    /// partitions, equal class/node counts, equal memo contents, and equal
    /// machine match lists for every rule. Both sides pass the storage-invariant validator after
    /// every commit+rebuild.
    #[test]
    fn staged_parallel_apply_is_bit_identical_to_sequential(
        steps in steps_strategy(30),
        rules in prop::collection::vec((pattern_strategy(8), pattern_strategy(8)), 1..4),
        n_threads in 1usize..=8,
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        filter_picks in prop::collection::vec(any::<usize>(), 0..4),
        rounds in 1usize..=3,
        node_limit in 60usize..300,
    ) {
        let expr = build_expr(&steps);
        // Two identically seeded e-graphs: same adds, unions, and filters
        // in the same order.
        let build = || {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            eg.add_expr(&expr);
            eg.rebuild();
            let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
            for (a, b) in &unions {
                let a = class_ids[a % class_ids.len()];
                let b = class_ids[b % class_ids.len()];
                eg.union(a, b);
            }
            eg.rebuild();
            let all_nodes: Vec<Math> = eg.classes().flat_map(|c| c.iter().cloned()).collect();
            for pick in &filter_picks {
                let node = all_nodes[pick % all_nodes.len()].clone();
                eg.filter_node(&node);
            }
            eg
        };
        let mut seq = build();
        let mut par = build();
        let rewrites: Vec<Rewrite<Math, ()>> =
            rules.iter().map(|(s, a)| build_rewrite(s, a)).collect();

        for _round in 0..rounds {
            // Both sides search their own graph; the searches must agree
            // before the apply phase even runs (they do — the graphs are
            // bit-identical by induction).
            let matches: Vec<Vec<SearchMatches>> =
                rewrites.iter().map(|r| r.search(&seq)).collect();
            for (r, m) in rewrites.iter().zip(&matches) {
                prop_assert_eq!(&r.search(&par), m);
            }

            // Sequential baseline: in-place per-rule apply with the shared
            // node cap (the pre-staging apply loop).
            for (r, m) in rewrites.iter().zip(&matches) {
                let (_, hit) = r.apply_capped(&mut seq, m, node_limit);
                if hit {
                    break;
                }
            }
            seq.rebuild();
            seq.check_invariants();

            // Staged path: stage every candidate against the read-only
            // graph, then commit the merged log sequentially.
            let batch: Vec<(&Rewrite<Math, ()>, &[SearchMatches])> = rewrites
                .iter()
                .zip(matches.iter().map(Vec::as_slice))
                .collect();
            let log = stage_matches_parallel(&batch, &par, n_threads, None);
            par.commit_log(&log, node_limit);
            par.rebuild();
            par.check_invariants();

            // Bit-identity of the full e-graph state.
            prop_assert_eq!(seq.id_space_size(), par.id_space_size());
            for i in 0..seq.id_space_size() {
                prop_assert_eq!(seq.find(Id::from(i)), par.find(Id::from(i)),
                    "union-find diverged at id {}", i);
            }
            prop_assert_eq!(seq.number_of_classes(), par.number_of_classes());
            prop_assert_eq!(seq.total_number_of_nodes(), par.total_number_of_nodes());
            prop_assert_eq!(seq.num_unfiltered_nodes(), par.num_unfiltered_nodes());
            prop_assert_eq!(seq.filtered_count(), par.filtered_count());
            let mut memo_seq = seq.memo_snapshot();
            let mut memo_par = par.memo_snapshot();
            memo_seq.sort();
            memo_par.sort();
            prop_assert_eq!(memo_seq, memo_par);
            // Machine match lists stay bit-identical going into the next
            // round (same class order, same substitution order).
            for r in &rewrites {
                prop_assert_eq!(r.search(&seq), r.search(&par));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis-guided (guarded) search
// ---------------------------------------------------------------------------

/// A constant-folding-flavoured analysis for the guard proptests: a class's
/// data is `Some(value)` when a constant value is known for it. Random
/// unions can merge classes with conflicting constants — `merge` then keeps
/// the existing value; guards only need the data to be *deterministic*, not
/// semantically meaningful.
#[derive(Clone, Copy, Default)]
struct ConstAnalysis;

impl Analysis<Math> for ConstAnalysis {
    type Data = Option<i64>;
    fn make(egraph: &EGraph<Math, Self>, enode: &Math) -> Option<i64> {
        let c = |id: &Id| egraph.eclass(*id).data;
        match enode {
            Math::Num(n) => Some(*n),
            Math::Sym(_) => None,
            Math::Add([a, b]) => c(a)?.checked_add(c(b)?),
            Math::Mul([a, b]) => c(a)?.checked_mul(c(b)?),
            Math::Div([a, b]) => c(a)?.checked_div(c(b)?),
            Math::Shl([_, _]) => None,
        }
    }
    fn merge(&mut self, to: &mut Option<i64>, from: Option<i64>) -> DidMerge {
        match (&to, from) {
            (None, Some(v)) => {
                *to = Some(v);
                DidMerge(true, false)
            }
            (Some(a), Some(b)) if *a != b => DidMerge(false, true),
            (Some(_), None) => DidMerge(false, true),
            _ => DidMerge(false, false),
        }
    }
    /// Tag 1 for known constants, 0 for unknown — so the "is a constant"
    /// guard below compiles to a pure tag mask and the proptests cover the
    /// dense tag-table fast path alongside dynamic predicates.
    fn kind_tag(data: &Option<i64>) -> u8 {
        data.is_some() as u8
    }
}

/// The pool of guards the proptests draw from (index 0 = no guard). All
/// are pure functions of the class data, as guards must be. Case 1 is a
/// pure *tag-mask* guard ("the class holds a known constant", tag 1 under
/// [`ConstAnalysis::kind_tag`]); the rest are dynamic predicates, and case
/// 4 mixes a mask with a predicate the way TENSAT's double-transpose guard
/// does.
fn guard_pool(choice: u8) -> Option<Guard<Option<i64>>> {
    match choice % 5 {
        0 => None,
        1 => Some(Guard::tags(1 << 1)),
        2 => Some(Guard::from_fn(
            |d: &Option<i64>| matches!(d, Some(v) if v % 2 == 0),
        )),
        3 => Some(Guard::from_fn(|d: &Option<i64>| !matches!(d, Some(0)))),
        _ => Some(Guard::tags(1 << 1).and(Guard::from_fn(|d: &Option<i64>| !matches!(d, Some(0))))),
    }
}

/// Post-filters an unguarded match list by the guards — the reference
/// semantics guarded search must reproduce *bit-identically*: a
/// substitution survives iff every guarded variable it binds maps to a
/// class whose analysis data passes [`Guard::check`]. The kind tag is
/// recomputed here from the data (not read from the e-graph's side table),
/// so a stale tag table would show up as a mismatch.
fn filter_by_guards(
    eg: &EGraph<Math, ConstAnalysis>,
    matches: &[SearchMatches],
    guards: &[(Var, Guard<Option<i64>>)],
) -> Vec<SearchMatches> {
    matches
        .iter()
        .filter_map(|m| {
            let substs: Vec<Subst> = m
                .substs
                .iter()
                .filter(|s| {
                    guards.iter().all(|(v, g)| match s.get(*v) {
                        Some(id) => {
                            let data = &eg.eclass(id).data;
                            g.check(ConstAnalysis::kind_tag(data), data)
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

proptest! {
    /// The tentpole equivalence: on random e-graphs (random unions, random
    /// analysis data) and random patterns, guarded search returns exactly
    /// the unguarded match list post-filtered by the same predicates — same
    /// class order, same substitution order — and the parallel guarded
    /// driver is bit-identical to the sequential one for 1–8 threads.
    #[test]
    fn guarded_search_equals_filtered_search_and_parallel_is_bit_identical(
        steps in steps_strategy(40),
        pat_steps in pattern_strategy(12),
        guard_choices in prop::collection::vec(0u8..5, 3),
        n_threads in 1usize..=8,
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ConstAnalysis> = EGraph::new(ConstAnalysis);
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();

        let pattern = build_pattern(&pat_steps);
        // Draw a guard (or none) for each of the three possible variables.
        let guards: Vec<(Var, Guard<Option<i64>>)> = guard_choices
            .iter()
            .enumerate()
            .filter_map(|(i, &choice)| {
                guard_pool(choice).map(|g| (Var::new(format!("v{i}")), g))
            })
            .collect();
        let guarded = GuardedProgram::compile(&pattern.ast, &guards);

        let unguarded = pattern.search(&eg);
        let expected = filter_by_guards(&eg, &unguarded, &guards);
        let got = search_one(guarded.query(), &eg);
        prop_assert_eq!(&got, &expected);
        let parallel = search_all_with_threshold(&[guarded.query()], &eg, n_threads, 0);
        prop_assert_eq!(parallel, vec![got]);
    }
}

proptest! {
    /// Adding the same expression twice always yields the same root class,
    /// and the node count does not grow the second time (hash-consing).
    #[test]
    fn adding_twice_is_idempotent(steps in steps_strategy(40)) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let r1 = eg.add_expr(&expr);
        let nodes_after_first = eg.total_number_of_nodes();
        let r2 = eg.add_expr(&expr);
        prop_assert_eq!(eg.find(r1), eg.find(r2));
        prop_assert_eq!(eg.total_number_of_nodes(), nodes_after_first);
    }

    /// The number of e-nodes never exceeds the number of added nodes, and
    /// extraction returns a term no larger than the input (AstSize is
    /// monotone under equality saturation with no rules: it is the input).
    #[test]
    fn extraction_roundtrips_without_rules(steps in steps_strategy(40)) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let root = eg.add_expr(&expr);
        eg.rebuild();
        prop_assert!(eg.total_number_of_nodes() <= expr.len());
        let ex = Extractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(root).unwrap();
        prop_assert!(cost >= 1);
        // Extracted term must itself be representable and re-add to the
        // same class.
        let again = eg.add_expr(&best);
        prop_assert_eq!(eg.find(again), eg.find(root));
    }

    /// Random unions never break the congruence invariant: after rebuild,
    /// congruent nodes (same op, equivalent children) are in the same class.
    #[test]
    fn rebuild_restores_congruence(
        steps in steps_strategy(30),
        unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..10)
    ) {
        let expr = build_expr(&steps);
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add_expr(&expr);
        eg.rebuild();
        let class_ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
        for (a, b) in unions {
            let a = class_ids[a % class_ids.len()];
            let b = class_ids[b % class_ids.len()];
            eg.union(a, b);
        }
        eg.rebuild();
        prop_assert!(eg.is_clean());
        // Check congruence: collect all (canonical node -> class) pairs; a
        // canonical node must never appear in two different classes.
        let mut seen: std::collections::HashMap<Math, Id> = Default::default();
        for class in eg.classes() {
            for node in class.iter() {
                let canon = eg.canonicalize(node);
                if let Some(prev) = seen.insert(canon, eg.find(class.id)) {
                    prop_assert_eq!(prev, eg.find(class.id),
                        "congruent node appears in two distinct classes");
                }
            }
        }
    }

    /// Union is order-insensitive: performing the same set of unions in any
    /// order yields the same partition of classes.
    #[test]
    fn union_order_does_not_matter(
        steps in steps_strategy(25),
        mut unions in prop::collection::vec((any::<usize>(), any::<usize>()), 1..8)
    ) {
        let expr = build_expr(&steps);
        let build = |pairs: &[(usize, usize)]| {
            let mut eg: EGraph<Math, ()> = EGraph::new(());
            let root = eg.add_expr(&expr);
            eg.rebuild();
            let ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
            for &(a, b) in pairs {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.union(a, b);
            }
            eg.rebuild();
            (eg, root)
        };
        let (eg1, root1) = build(&unions);
        unions.reverse();
        let (eg2, root2) = build(&unions);
        prop_assert_eq!(eg1.number_of_classes(), eg2.number_of_classes());
        prop_assert_eq!(eg1.total_number_of_nodes(), eg2.total_number_of_nodes());
        // The root must extract to the same minimal cost in both.
        let c1 = Extractor::new(&eg1, AstSize).best_cost(root1);
        let c2 = Extractor::new(&eg2, AstSize).best_cost(root2);
        prop_assert_eq!(c1, c2);
    }
}

// ---------------------------------------------------------------------------
// Dense slot-indexed storage: rebuild-schedule independence
// ---------------------------------------------------------------------------

/// One step of a refactor-era operation sequence over an e-graph: add the
/// next node of a pre-generated expression, union two previously added
/// nodes' classes, rebuild, filter a previously added node, or clear the
/// filter set. Operations are expressed against *expression node indices*
/// (not raw ids), so the identical semantic sequence can be replayed
/// against e-graphs with different rebuild schedules — whose internal ids
/// and slots legitimately diverge.
#[derive(Debug, Clone)]
enum SeqOp {
    Add,
    Union(usize, usize),
    Rebuild,
    Filter(usize),
    ClearFiltered,
}

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Vec<SeqOp>> {
    // The vendored proptest stub has no weighted `prop_oneof!`; bias
    // towards adds by listing the variant several times.
    prop::collection::vec(
        prop_oneof![
            Just(SeqOp::Add),
            Just(SeqOp::Add),
            Just(SeqOp::Add),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| SeqOp::Union(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| SeqOp::Union(a, b)),
            Just(SeqOp::Rebuild),
            any::<usize>().prop_map(SeqOp::Filter),
            Just(SeqOp::ClearFiltered),
        ],
        1..max_len,
    )
}

/// Replays `ops` against a fresh e-graph. `rebuild_every_op` is the
/// per-operation-rebuild baseline schedule; `false` rebuilds only at
/// explicit `Rebuild` ops (and both schedules end with a final rebuild).
/// Returns the e-graph and the expr-index → id map.
fn replay(
    expr: &RecExpr<Math>,
    ops: &[SeqOp],
    rebuild_every_op: bool,
) -> (EGraph<Math, ()>, Vec<Id>) {
    let mut eg: EGraph<Math, ()> = EGraph::new(());
    let mut ids: Vec<Id> = vec![];
    let nodes: Vec<(Id, &Math)> = expr.iter().collect();
    // Always seed at least one node so Union/Filter have a target.
    let mut next_add = 0usize;
    let mut add_one = |eg: &mut EGraph<Math, ()>, ids: &mut Vec<Id>| {
        if next_add < nodes.len() {
            let node = nodes[next_add].1.map_children(|c| ids[usize::from(c)]);
            ids.push(eg.add(node));
            next_add += 1;
        }
    };
    add_one(&mut eg, &mut ids);
    for op in ops {
        match op {
            SeqOp::Add => add_one(&mut eg, &mut ids),
            SeqOp::Union(a, b) => {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                eg.union(a, b);
            }
            SeqOp::Rebuild => {
                eg.rebuild();
            }
            SeqOp::Filter(k) => {
                // Filter the semantic node at expr index k (reconstructed
                // from the expression, so both schedules filter the same
                // term; `filter_node` canonicalizes internally).
                let k = *k % ids.len();
                let node = nodes[k].1.map_children(|c| ids[usize::from(c)]);
                eg.filter_node(&node);
            }
            SeqOp::ClearFiltered => eg.clear_filtered(),
        }
        if rebuild_every_op {
            eg.rebuild();
        }
    }
    eg.rebuild();
    (eg, ids)
}

/// The schedule-independent name of a class: the sorted set of expression
/// node indices whose classes merged into it. Two e-graphs built from the
/// same semantic sequence are compared through these keys, because raw ids
/// (and union-find roots) legitimately differ between rebuild schedules.
fn class_key(eg: &EGraph<Math, ()>, ids: &[Id], id: Id) -> Vec<usize> {
    let root = eg.find(id);
    (0..ids.len())
        .filter(|&i| eg.find(ids[i]) == root)
        .collect()
}

/// Normalizes a match list into schedule-independent form: class key →
/// set of substitutions over class keys.
type IndexedMatches = BTreeMap<Vec<usize>, BTreeSet<Vec<(Var, Vec<usize>)>>>;

fn normalize_by_index(
    eg: &EGraph<Math, ()>,
    ids: &[Id],
    matches: &[SearchMatches],
) -> IndexedMatches {
    let mut out: IndexedMatches = BTreeMap::new();
    for m in matches {
        let substs = out.entry(class_key(eg, ids, m.eclass)).or_default();
        for s in &m.substs {
            let mut bindings: Vec<(Var, Vec<usize>)> = s
                .iter()
                .map(|(v, id)| (v, class_key(eg, ids, id)))
                .collect();
            bindings.sort();
            substs.insert(bindings);
        }
    }
    out
}

proptest! {
    /// The dense-storage acceptance property: an e-graph driven through a
    /// random refactor-era operation sequence (add / union / rebuild /
    /// filter / clear-filter) with the *incremental* rebuild schedule must
    /// be indistinguishable from the per-op-rebuild sequential baseline —
    /// same class partition, same class count, same node count, same match
    /// sets (machine *and* naive oracle), same greedy extraction costs —
    /// and both must pass the full storage-invariant validator.
    #[test]
    fn rebuild_schedule_does_not_change_the_egraph(
        steps in steps_strategy(30),
        ops in seq_strategy(40),
        pat_steps in pattern_strategy(10),
    ) {
        let expr = build_expr(&steps);
        let (a, ids_a) = replay(&expr, &ops, false);
        let (b, ids_b) = replay(&expr, &ops, true);
        a.check_invariants();
        b.check_invariants();
        prop_assert_eq!(ids_a.len(), ids_b.len());
        let n = ids_a.len();

        // Identical class partitions over the added nodes...
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(
                    a.find(ids_a[i]) == a.find(ids_a[j]),
                    b.find(ids_b[i]) == b.find(ids_b[j]),
                    "partition diverged at indices {} / {}", i, j
                );
            }
        }
        // ...and identical aggregate shape.
        prop_assert_eq!(a.number_of_classes(), b.number_of_classes());
        prop_assert_eq!(a.classes().count(), b.classes().count());
        prop_assert_eq!(a.total_number_of_nodes(), b.total_number_of_nodes());
        prop_assert_eq!(a.filtered_count(), b.filtered_count());
        prop_assert_eq!(a.num_unfiltered_nodes(), b.num_unfiltered_nodes());

        // Identical match sets, by the machine and by the naive oracle.
        let pattern = build_pattern(&pat_steps);
        prop_assert_eq!(
            normalize_by_index(&a, &ids_a, &pattern.search(&a)),
            normalize_by_index(&b, &ids_b, &pattern.search(&b))
        );
        prop_assert_eq!(
            normalize_by_index(&a, &ids_a, &pattern.search_naive(&a)),
            normalize_by_index(&b, &ids_b, &pattern.search_naive(&b))
        );

        // Identical greedy extraction costs for every added node's class.
        let ex_a = Extractor::new(&a, AstSize);
        let ex_b = Extractor::new(&b, AstSize);
        for i in 0..n {
            prop_assert_eq!(
                ex_a.best_cost(ids_a[i]),
                ex_b.best_cost(ids_b[i]),
                "extraction cost diverged at index {}", i
            );
        }
    }

}
