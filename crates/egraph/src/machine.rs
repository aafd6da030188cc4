//! A compiled e-matching abstract machine (de Moura & Bjørner 2007, as in
//! egg): each [`Pattern`](crate::Pattern) is compiled once into a linear
//! instruction [`Program`] that is executed against candidate e-classes
//! with a single reusable register stack, instead of recursively cloning
//! per-branch substitution vectors.
//!
//! Four instructions suffice:
//!
//! * [`Instruction::Bind`] — enumerate the e-nodes of the class in register
//!   `i` whose operator matches the pattern node, writing each node's
//!   (canonicalized) children into registers `out..`; the machine
//!   backtracks over the alternatives.
//! * [`Instruction::Compare`] — require two registers to hold the same
//!   e-class (non-linear patterns such as `(+ ?x ?x)`).
//! * [`Instruction::Lookup`] — match a variable-free subterm in O(term)
//!   hash-cons lookups instead of enumerating class nodes; on a congruent
//!   e-graph a ground term has exactly one realization, which is also
//!   checked against the filter set node by node.
//! * [`Instruction::Guard`] — *analysis-guided pruning*: fail unless a
//!   predicate accepts the e-class **analysis data** of the class a pattern
//!   variable is bound to. Guards are emitted right after the register is
//!   filled, so a semantically dead binding (e.g. a tensor variable bound to
//!   a class with invalid shape data) kills the whole branch before any
//!   deeper `Bind` fans out — instead of a post-match `Condition` discarding
//!   the finished substitution. See [`GuardedProgram`].
//!
//! Search additionally consults the e-graph's operator index
//! ([`EGraph::classes_with_op`]): only classes containing at least one node
//! with the same operator discriminant as the pattern root are visited.
//!
//! The operator index also yields a natural *parallel* decomposition:
//! programs are immutable and the e-graph's read path is `Sync`-clean, so
//! candidate classes can be split into contiguous chunks and searched by
//! scoped threads, each with its own register stack ([`search_all`]).
//! Merging the chunk outputs in chunk order reproduces the sequential
//! result ([`search_one`]) bit for bit.

use crate::{Analysis, EGraph, ENodeOrVar, Id, Language, RecExpr, SearchMatches, Subst, Var};
use std::collections::{HashMap, VecDeque};
use std::mem::Discriminant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A virtual register holding an e-class id during matching.
pub type Reg = usize;

/// An analysis guard predicate: inspects the e-class analysis data (`D` is
/// the [`Analysis::Data`] type) of the class a pattern variable is bound to
/// and returns whether the binding can possibly survive the rule's side
/// condition. Evaluated by [`Instruction::Guard`] *during* matching, so a
/// rejected binding is pruned before deeper `Bind` instructions fan out.
///
/// For guarded search to be equivalent to unguarded-then-filtered search
/// (the invariant the proptests pin down), a guard must be a *pure* function
/// of the class data it is given.
pub type GuardFn<D> = Arc<dyn Fn(&D) -> bool + Send + Sync>;

/// A bitmask over interned analysis kind tags ([`Analysis::kind_tag`]):
/// bit `t` set means a class whose data has kind tag `t` is admissible.
pub type TagMask = u32;

/// An analysis guard: the per-variable admissibility test evaluated by
/// [`Instruction::Guard`] mid-match. A guard is the conjunction of
///
/// * a **tag mask** over the interned per-class kind tags
///   ([`Analysis::kind_tag`], stored in a dense side table read by
///   [`EGraph::kind_tag`]) — evaluated with one array read and one bit
///   test, no dynamic dispatch and no borrow of the class data; and
/// * an optional **dynamic predicate** ([`GuardFn`]) over the full class
///   data, for guards that need more than the coarse kind.
///
/// Guards whose condition is a pure function of the data's kind (e.g.
/// TENSAT's "this variable must bind a valid tensor" shape guards) compile
/// to a bare mask via [`Guard::tags`], which is what erases the
/// `Arc<dyn Fn>` call from the guard hot path. Both parts must be pure
/// functions of the class data for guarded search to stay equivalent to
/// unguarded-then-filtered search.
pub struct Guard<D> {
    mask: TagMask,
    pred: Option<GuardFn<D>>,
}

// Manual impl: `derive` would require `D: Clone`, but only the `Arc` is
// cloned.
impl<D> Clone for Guard<D> {
    fn clone(&self) -> Self {
        Guard {
            mask: self.mask,
            pred: self.pred.clone(),
        }
    }
}

impl<D> Guard<D> {
    /// A guard accepting exactly the classes whose kind tag is in `mask`.
    pub fn tags(mask: TagMask) -> Self {
        Guard { mask, pred: None }
    }

    /// A guard accepting exactly the classes whose data satisfies `f`
    /// (every kind tag is admissible; the predicate alone decides).
    pub fn from_fn(f: impl Fn(&D) -> bool + Send + Sync + 'static) -> Self {
        Guard {
            mask: TagMask::MAX,
            pred: Some(Arc::new(f)),
        }
    }

    /// A guard from an existing shared predicate; see [`Guard::from_fn`].
    pub fn from_arc(f: GuardFn<D>) -> Self {
        Guard {
            mask: TagMask::MAX,
            pred: Some(f),
        }
    }

    /// The conjunction of two guards: masks intersect, predicates compose.
    pub fn and(self, other: Self) -> Self
    where
        D: 'static,
    {
        let pred = match (self.pred, other.pred) {
            (Some(a), Some(b)) => Some(Arc::new(move |d: &D| a(d) && b(d)) as GuardFn<D>),
            (one, None) | (None, one) => one,
        };
        Guard {
            mask: self.mask & other.mask,
            pred,
        }
    }

    /// The tag mask part of the guard ([`TagMask::MAX`] = unconstrained).
    pub fn mask(&self) -> TagMask {
        self.mask
    }

    /// The dynamic-predicate part of the guard, if any.
    pub fn pred(&self) -> Option<&GuardFn<D>> {
        self.pred.as_ref()
    }

    /// True if the mask admits the given kind tag. Tags at or above 32 are
    /// outside the mask's range and never admissible.
    #[inline]
    pub fn admits_tag(&self, tag: u8) -> bool {
        self.mask & 1u32.checked_shl(tag as u32).unwrap_or(0) != 0
    }

    /// The full guard semantics — the reference the differential tests
    /// filter with: the tag passes the mask *and* the data passes the
    /// predicate (if any). `tag` must be the data's [`Analysis::kind_tag`].
    pub fn check(&self, tag: u8, data: &D) -> bool {
        self.admits_tag(tag) && self.pred.as_ref().is_none_or(|p| p(data))
    }
}

impl<D> std::fmt::Debug for Guard<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("mask", &format_args!("{:#x}", self.mask))
            .field("dyn", &self.pred.is_some())
            .finish()
    }
}

/// A `(program, guard table)` pair, the unit the search drivers take (see
/// [`search_all`] and [`search_one`]). An empty table means the
/// program is unguarded; a guarded program's table must be parallel to its
/// [`Program::guard_vars`]. Obtained from
/// [`GuardedProgram::query`] or
/// [`Rewrite::searcher_query`](crate::Rewrite::searcher_query).
pub type SearchQuery<'a, L, D> = (&'a Program<L>, &'a [Guard<D>]);

/// One step of a compiled pattern program.
#[derive(Debug, Clone)]
pub enum Instruction<L> {
    /// Try every e-node of the class in register `i` that matches `node`
    /// (and is not filtered); write its children into `out..out+arity`.
    Bind {
        /// The pattern node to match (children ids are pattern-internal and
        /// ignored; only the operator matters).
        node: L,
        /// Register holding the class to search.
        i: Reg,
        /// First output register for the matched node's children.
        out: Reg,
    },
    /// Fail unless registers `i` and `j` hold the same e-class.
    Compare {
        /// First register.
        i: Reg,
        /// Second register.
        j: Reg,
    },
    /// Fail unless the ground (variable-free) term is represented,
    /// unfiltered, and lives in the class held by register `i`.
    Lookup {
        /// The ground term, children-first.
        term: RecExpr<L>,
        /// Register the term's class must equal.
        i: Reg,
    },
    /// Fail unless the guard predicate at index `pred` (in the guard table
    /// supplied at search time) accepts the analysis data of the e-class
    /// held by register `i`. Emitted for guarded pattern variables right
    /// after the variable first claims its register, so the branch dies
    /// before deeper binds run.
    Guard {
        /// Register holding the class whose analysis data is inspected.
        i: Reg,
        /// Index into the guard table (parallel to
        /// [`Program::guard_vars`]).
        pred: usize,
    },
}

/// A pattern compiled to a linear instruction sequence.
///
/// Obtained from [`Pattern::program`](crate::Pattern::program) (which
/// compiles lazily and caches) or directly via [`Program::compile`].
#[derive(Debug, Clone)]
pub struct Program<L> {
    instructions: Vec<Instruction<L>>,
    /// `(variable, register)` pairs in first-occurrence (AST) order; read
    /// out at every successful match to build the substitution.
    subst_template: Vec<(Var, Reg)>,
    /// Operator discriminant of the pattern root, if the root is a concrete
    /// node — used to restrict search via the e-graph's operator index.
    root_op: Option<Discriminant<L>>,
    /// The guarded variables, in guard-table order: the `pred` field of
    /// every emitted [`Instruction::Guard`] indexes into this list, and the
    /// guard table supplied at search time must be parallel to it.
    guard_vars: Vec<Var>,
}

impl<L: Language> Program<L> {
    /// Compiles a pattern AST into an instruction program (without guards).
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn compile(pattern: &RecExpr<ENodeOrVar<L>>) -> Self {
        Self::compile_guarded(pattern, &[])
    }

    /// Compiles a pattern AST into an instruction program that additionally
    /// checks an analysis guard on each of `guard_vars` (see
    /// [`Instruction::Guard`]). The emitted `Guard` instructions index into
    /// a guard table that must be supplied — parallel to `guard_vars` — at
    /// search time ([`SearchQuery`]); [`GuardedProgram`] bundles the two.
    /// Guarded variables that do not occur in the pattern emit no
    /// instruction (their table slot is simply never consulted).
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn compile_guarded(pattern: &RecExpr<ENodeOrVar<L>>, guard_vars: &[Var]) -> Self {
        assert!(!pattern.is_empty(), "cannot compile an empty pattern");
        let root = pattern.root();

        // A pattern node is ground if its subtree contains no variables
        // (children precede parents in a RecExpr, so one pass suffices).
        let mut ground = vec![false; pattern.len()];
        for (id, node) in pattern.iter() {
            ground[usize::from(id)] = match node {
                ENodeOrVar::Var(_) => false,
                ENodeOrVar::ENode(n) => n.children().iter().all(|&c| ground[usize::from(c)]),
            };
        }

        let mut instructions = vec![];
        let mut v2r: HashMap<Var, Reg> = HashMap::new();
        let mut todo: VecDeque<(Reg, Id)> = VecDeque::new();
        let mut next_reg: Reg = 1;
        match &pattern[root] {
            ENodeOrVar::Var(v) => {
                // A variable root claims register 0 (the candidate class);
                // its guard, if any, is the very first instruction.
                v2r.insert(*v, 0);
                if let Some(pred) = guard_vars.iter().position(|u| u == v) {
                    instructions.push(Instruction::Guard { i: 0, pred });
                }
            }
            ENodeOrVar::ENode(_) => todo.push_back((0, root)),
        }
        while let Some((reg, pat_id)) = todo.pop_front() {
            let ENodeOrVar::ENode(node) = &pattern[pat_id] else {
                unreachable!("only concrete nodes are queued");
            };
            // Ground subterms become O(term)-time hash-cons lookups.
            // The root stays a Bind so per-candidate work in the
            // search loop does not repeat a whole-term lookup.
            if ground[usize::from(pat_id)] && pat_id != root {
                instructions.push(Instruction::Lookup {
                    term: ground_term(pattern, pat_id),
                    i: reg,
                });
                continue;
            }
            let out = next_reg;
            next_reg += node.children().len();
            instructions.push(Instruction::Bind {
                node: node.clone(),
                i: reg,
                out,
            });
            // Variable children are resolved here, immediately after the
            // Bind that fills their registers: a first occurrence claims
            // the register and emits its guard right away — before any
            // deeper Bind fans out — and a repeat occurrence emits the
            // non-linearity Compare. Concrete children are queued for BFS
            // processing. (The claiming order is identical to the previous
            // pop-time scheme — BFS pops positions in enqueue order — so
            // register assignments and match results are unchanged; only
            // Guard/Compare instructions move earlier in the stream.)
            for (k, &child) in node.children().iter().enumerate() {
                let child_reg = out + k;
                match &pattern[child] {
                    ENodeOrVar::Var(v) => match v2r.get(v) {
                        Some(&bound) => instructions.push(Instruction::Compare {
                            i: bound,
                            j: child_reg,
                        }),
                        None => {
                            v2r.insert(*v, child_reg);
                            if let Some(pred) = guard_vars.iter().position(|u| u == v) {
                                instructions.push(Instruction::Guard { i: child_reg, pred });
                            }
                        }
                    },
                    ENodeOrVar::ENode(_) => todo.push_back((child_reg, child)),
                }
            }
        }

        // Substitution template in AST first-occurrence order. (For the
        // usual bottom-up-built patterns this coincides with the recursive
        // matcher's DFS binding order, but not for every AST layout —
        // comparisons across matchers must normalize binding order.)
        // Variables that only occur in AST nodes unreachable from the root
        // never got a register (the recursive matcher never binds them
        // either).
        let mut subst_template = vec![];
        for (_, node) in pattern.iter() {
            if let ENodeOrVar::Var(v) = node {
                if let Some(&reg) = v2r.get(v) {
                    if !subst_template.iter().any(|(u, _)| u == v) {
                        subst_template.push((*v, reg));
                    }
                }
            }
        }

        let root_op = match &pattern[root] {
            ENodeOrVar::ENode(n) => Some(n.discriminant()),
            ENodeOrVar::Var(_) => None,
        };

        Program {
            instructions,
            subst_template,
            root_op,
            guard_vars: guard_vars.to_vec(),
        }
    }

    /// The compiled instruction sequence.
    pub fn instructions(&self) -> &[Instruction<L>] {
        &self.instructions
    }

    /// The guarded variables in guard-table order: slot `pred` of the guard
    /// table supplied at search time is the predicate for `guard_vars()[pred]`.
    /// Empty for programs compiled without guards.
    pub fn guard_vars(&self) -> &[Var] {
        &self.guard_vars
    }

    /// The operator discriminant of the pattern root, if it is a concrete
    /// node (used as the operator-index key).
    pub fn root_op(&self) -> Option<Discriminant<L>> {
        self.root_op
    }

    /// Asserts that the supplied guard table is parallel to the compiled
    /// guard variables — a mismatch means guarded and unguarded entry
    /// points were mixed up, which would silently change match sets.
    fn check_guard_table(&self, supplied: usize) {
        assert_eq!(
            supplied,
            self.guard_vars.len(),
            "guard table size mismatch: program compiled with {} guarded variable(s), \
             search called with {} predicate(s) — search guard-compiled programs \
             through GuardedProgram::query",
            self.guard_vars.len(),
            supplied,
        );
    }

    /// The classes this program's search visits, in the deterministic order
    /// the sequential driver uses (ascending class id, restricted by the
    /// operator index when the root is a concrete node).
    fn candidate_classes<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<Id> {
        match self.root_op {
            Some(op) => egraph.classes_with_op(op).to_vec(),
            None => egraph.classes().map(|class| class.id).collect(),
        }
    }

    fn search_class<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        machine: &mut Machine,
        lookups: &[Option<Id>],
        guards: &[Guard<N::Data>],
        eclass: Id,
    ) -> Option<SearchMatches> {
        machine.regs.clear();
        machine.regs.push(eclass);
        let mut substs = vec![];
        machine.run(
            &MachineCtx {
                egraph,
                instructions: &self.instructions,
                lookups,
                guards,
                subst_template: &self.subst_template,
            },
            0,
            &mut substs,
        );
        // Distinct derivations can in principle yield the same binding;
        // sort before dedup so non-adjacent duplicates are removed too.
        substs.sort_unstable();
        substs.dedup();
        (!substs.is_empty()).then_some(SearchMatches { eclass, substs })
    }
}

/// A compiled *guarded* searcher: a pattern recompiled with
/// [`Instruction::Guard`] instructions plus the guard-predicate table those
/// instructions index (`D` is the e-class analysis data type,
/// [`Analysis::Data`]).
///
/// Guarded search returns exactly the matches of the plain program whose
/// guarded variables all bind to classes whose analysis data passes the
/// corresponding predicate — but prunes failing branches *inside* the
/// machine, before deeper binds fan out, instead of filtering finished
/// substitutions afterwards. The equivalence (and bit-identical parallel
/// behavior) is pinned down by proptests in `tests/proptests.rs`.
///
/// Rewrites carry one of these when constructed with
/// [`Rewrite::with_guards`](crate::Rewrite::with_guards).
#[derive(Clone)]
pub struct GuardedProgram<L, D> {
    program: Program<L>,
    guards: Vec<Guard<D>>,
}

impl<L: Language, D> GuardedProgram<L, D> {
    /// Compiles a pattern AST with one guard per listed variable. Multiple
    /// entries for the same variable are conjoined; entries for variables
    /// that do not occur in the pattern are kept in the table but never
    /// consulted.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn compile(pattern: &RecExpr<ENodeOrVar<L>>, guards: &[(Var, Guard<D>)]) -> Self
    where
        D: 'static,
    {
        let mut vars: Vec<Var> = vec![];
        let mut preds: Vec<Guard<D>> = vec![];
        for (var, guard) in guards {
            let guard: Guard<D> = guard.clone();
            match vars.iter().position(|v| v == var) {
                Some(i) => {
                    // Conjoin duplicate guards for one variable.
                    preds[i] = preds[i].clone().and(guard);
                }
                None => {
                    vars.push(*var);
                    preds.push(guard);
                }
            }
        }
        GuardedProgram {
            program: Program::compile_guarded(pattern, &vars),
            guards: preds,
        }
    }

    /// The underlying guard-compiled program (its
    /// [`Program::guard_vars`] is parallel to [`GuardedProgram::guards`]).
    pub fn program(&self) -> &Program<L> {
        &self.program
    }

    /// The guard table, parallel to
    /// [`Program::guard_vars`](Program::guard_vars).
    pub fn guards(&self) -> &[Guard<D>] {
        &self.guards
    }

    /// The `(program, guard table)` pair the search drivers take (see
    /// [`search_all`] and [`search_one`]).
    pub fn query(&self) -> SearchQuery<'_, L, D> {
        (&self.program, &self.guards)
    }
}

impl<L: Language + std::fmt::Debug, D> std::fmt::Debug for GuardedProgram<L, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedProgram")
            .field("program", &self.program)
            .field("guards", &self.guards.len())
            .finish()
    }
}

/// Chunks per worker thread in the parallel search driver. More chunks than
/// threads lets the atomic work queue rebalance when candidate classes have
/// very uneven node counts (common: a few classes hold most of a model's
/// operator nodes); contiguous chunks keep the merge deterministic.
const CHUNKS_PER_THREAD: usize = 8;

/// Candidate-count threshold below which the parallel search driver runs
/// the sequential path even when asked for several threads. Spawning scoped
/// workers, sharding the queue, and merging slots costs a few hundred
/// microseconds; batches this small finish sequentially in less (the
/// benchmark models' full rule batches span 50–1100 candidate classes and
/// search in 7–220 µs), so the threads would only add overhead. Batches at
/// or above the threshold keep the bit-identical chunk-ordered merge path.
pub const PARALLEL_SEARCH_SPAWN_THRESHOLD: usize = 2048;

/// Searches one compiled program, paired with its guard table (empty for
/// an unguarded program), over the e-graph on the calling thread: the
/// sequential driver, and the reference every other entry point is
/// bit-identical to. It has no `Sync` bounds, so languages and analyses
/// holding non-`Sync` data can still search.
///
/// # Panics
///
/// Panics if the guard table does not match the program's
/// [`Program::guard_vars`]. Debug-asserts that the e-graph is clean:
/// searching a dirty e-graph silently returns stale or incomplete matches,
/// so callers must [`EGraph::rebuild`] first.
pub fn search_one<L: Language, N: Analysis<L>>(
    query: SearchQuery<'_, L, N::Data>,
    egraph: &EGraph<L, N>,
) -> Vec<SearchMatches> {
    let (program, guards) = query;
    program.check_guard_table(guards.len());
    debug_assert!(
        egraph.is_clean(),
        "pattern search on a dirty e-graph returns stale matches; call rebuild() first"
    );
    let mut machine = Machine::default();
    let lookups = machine_lookups(egraph, &program.instructions);
    program
        .candidate_classes(egraph)
        .into_iter()
        .filter_map(|id| program.search_class(egraph, &mut machine, &lookups, guards, id))
        .collect()
}

/// Searches a batch of `(program, guard table)` queries over one e-graph,
/// returning one match list per query, each bit-identical to
/// [`search_one`] on that query.
///
/// With `n_threads > 1`, the candidate classes of all queries are sharded
/// across scoped threads. Work items — contiguous chunks of each program's
/// candidate list — go into a single atomic queue, so threads
/// load-balance *across* programs: one hot rule's chunks spread over
/// every thread instead of serializing the batch. Each thread owns a
/// private register stack; the shared e-graph is only read (its search
/// accessors are `Sync`-clean) and the guard predicates are pure `Sync`
/// closures. Chunk outputs are written to per-item slots and merged in
/// item order, which reproduces the sequential per-program match lists bit
/// for bit.
///
/// `n_threads <= 1`, an empty candidate set, or a batch below
/// [`PARALLEL_SEARCH_SPAWN_THRESHOLD`] candidates runs [`search_one`] per
/// query — identical behavior, no thread overhead.
///
/// # Panics
///
/// As for [`search_one`].
pub fn search_all<L, N>(
    queries: &[SearchQuery<'_, L, N::Data>],
    egraph: &EGraph<L, N>,
    n_threads: usize,
) -> Vec<Vec<SearchMatches>>
where
    L: Language + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    search_all_with_threshold(queries, egraph, n_threads, PARALLEL_SEARCH_SPAWN_THRESHOLD)
}

/// [`search_all`] with an explicit spawn threshold in place of
/// [`PARALLEL_SEARCH_SPAWN_THRESHOLD`], so tests can pin every dispatch:
/// `0` forces the parallel driver for any nonempty batch and `usize::MAX`
/// forces the sequential driver. Every dispatch produces bit-identical
/// match lists.
pub fn search_all_with_threshold<L, N>(
    queries: &[SearchQuery<'_, L, N::Data>],
    egraph: &EGraph<L, N>,
    n_threads: usize,
    spawn_threshold: usize,
) -> Vec<Vec<SearchMatches>>
where
    L: Language + Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    let sequential = || {
        queries
            .iter()
            .map(|&query| search_one(query, egraph))
            .collect()
    };
    if n_threads <= 1 {
        return sequential();
    }
    for (p, g) in queries {
        p.check_guard_table(g.len());
    }
    debug_assert!(
        egraph.is_clean(),
        "pattern search on a dirty e-graph returns stale matches; call rebuild() first"
    );
    let candidates: Vec<Vec<Id>> = queries
        .iter()
        .map(|(p, _)| p.candidate_classes(egraph))
        .collect();
    let total: usize = candidates.iter().map(Vec::len).sum();

    // Tiny batches lose more to thread spawn + merge than the threads can
    // win back — run them on the sequential driver (which is the
    // correctness reference, so results are identical by construction).
    if total < spawn_threshold {
        return sequential();
    }

    // Clamp the worker count: more workers than candidate classes would
    // spawn threads with nothing to do, and more than a few per core is
    // pure oversubscription (a caller passing `1000` must not create 999
    // OS threads). The small multiple still lets CI force a >1 count on a
    // single-core runner to exercise this path. A clamp to 1 means every
    // spawned worker would idle — run sequentially.
    let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get() * 4);
    let n_threads = n_threads.min(max_workers).min(total.max(1));
    if n_threads == 1 {
        return sequential();
    }

    // Ground-term lookups are a per-(program, e-graph) constant: resolve
    // them once here and share them read-only with every shard.
    let lookups: Vec<Vec<Option<Id>>> = queries
        .iter()
        .map(|(p, _)| machine_lookups(egraph, &p.instructions))
        .collect();

    let chunk_size = total.div_ceil(n_threads * CHUNKS_PER_THREAD).max(1);
    let mut items: Vec<(usize, std::ops::Range<usize>)> = vec![];
    for (prog_idx, classes) in candidates.iter().enumerate() {
        let mut start = 0;
        while start < classes.len() {
            let end = (start + chunk_size).min(classes.len());
            items.push((prog_idx, start..end));
            start = end;
        }
    }

    // One result slot per work item; each slot is written exactly once, by
    // the thread that claimed the item off the queue.
    let slots: Vec<OnceLock<Vec<SearchMatches>>> = items.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut machine = Machine::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((prog_idx, range)) = items.get(i) else {
                break;
            };
            let (program, guards) = queries[*prog_idx];
            let found: Vec<SearchMatches> = candidates[*prog_idx][range.clone()]
                .iter()
                .filter_map(|&id| {
                    program.search_class(egraph, &mut machine, &lookups[*prog_idx], guards, id)
                })
                .collect();
            slots[i].set(found).expect("each work item is claimed once");
        }
    };
    std::thread::scope(|scope| {
        // The calling thread is the n-th worker: it drains the queue too,
        // so one spawn is saved and the search still makes progress while
        // the OS brings the workers up.
        for _ in 1..n_threads {
            scope.spawn(work);
        }
        work();
    });

    // Items were generated per program in candidate order, so concatenating
    // the slots in item order reproduces the sequential output exactly.
    let mut out: Vec<Vec<SearchMatches>> = queries.iter().map(|_| vec![]).collect();
    for ((prog_idx, _), slot) in items.iter().zip(slots) {
        out[*prog_idx].extend(slot.into_inner().expect("every work item was processed"));
    }
    out
}

/// Resolves every `Lookup` instruction's ground term to its e-class once
/// per (e-graph, program) pair: the class is a constant for the whole
/// search, so per-visit work reduces to one register compare. `None` marks
/// a term that is absent or filtered — the instruction always fails.
fn machine_lookups<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    instructions: &[Instruction<L>],
) -> Vec<Option<Id>> {
    instructions
        .iter()
        .map(|instruction| match instruction {
            Instruction::Lookup { term, .. } => {
                let mut ids: Vec<Id> = Vec::with_capacity(term.len());
                for (_, node) in term.iter() {
                    let node = node.map_children(|c| ids[usize::from(c)]);
                    // Every node of the (unique) realization must exist and
                    // be unfiltered, exactly as the naive matcher requires.
                    if egraph.is_filtered(&node) {
                        return None;
                    }
                    match egraph.lookup(&node) {
                        Some(found) => ids.push(found),
                        None => return None,
                    }
                }
                ids.last().copied()
            }
            _ => None,
        })
        .collect()
}

/// Builds the standalone `RecExpr` of a ground pattern subtree.
fn ground_term<L: Language>(pattern: &RecExpr<ENodeOrVar<L>>, id: Id) -> RecExpr<L> {
    fn go<L: Language>(
        pattern: &RecExpr<ENodeOrVar<L>>,
        id: Id,
        out: &mut RecExpr<L>,
        memo: &mut HashMap<Id, Id>,
    ) -> Id {
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let node = match &pattern[id] {
            ENodeOrVar::ENode(n) => n.map_children(|c| go(pattern, c, out, memo)),
            ENodeOrVar::Var(v) => unreachable!("ground subterm contains variable {v}"),
        };
        let added = out.add(node);
        memo.insert(id, added);
        added
    }
    let mut out = RecExpr::default();
    go(pattern, id, &mut out, &mut HashMap::new());
    out
}

/// Read-only per-search state shared by every backtracking frame of one
/// [`Machine::run`] invocation: the e-graph, the compiled instructions, the
/// pre-resolved ground-term lookups, the guard table, and the substitution
/// template.
struct MachineCtx<'a, L: Language, N: Analysis<L>> {
    egraph: &'a EGraph<L, N>,
    instructions: &'a [Instruction<L>],
    lookups: &'a [Option<Id>],
    guards: &'a [Guard<N::Data>],
    subst_template: &'a [(Var, Reg)],
}

/// The register stack. One instance is reused across all candidate classes
/// of a search; backtracking truncates instead of cloning.
#[derive(Debug, Default)]
struct Machine {
    regs: Vec<Id>,
}

impl Machine {
    fn run<L: Language, N: Analysis<L>>(
        &mut self,
        ctx: &MachineCtx<'_, L, N>,
        pc: usize,
        out: &mut Vec<Subst>,
    ) {
        let egraph = ctx.egraph;
        for pc in pc..ctx.instructions.len() {
            match &ctx.instructions[pc] {
                Instruction::Bind { node, i, out: reg } => {
                    let class = egraph.eclass(self.regs[*i]);
                    for enode in class.iter() {
                        if !node.matches(enode) || egraph.is_filtered(enode) {
                            continue;
                        }
                        self.regs.truncate(*reg);
                        for &child in enode.children() {
                            self.regs.push(egraph.find(child));
                        }
                        self.run(ctx, pc + 1, out);
                    }
                    return;
                }
                Instruction::Compare { i, j } => {
                    if egraph.find(self.regs[*i]) != egraph.find(self.regs[*j]) {
                        return;
                    }
                }
                Instruction::Lookup { term: _, i } => {
                    // The term's class was resolved once for this search
                    // (absent/filtered terms resolve to None: always fail).
                    if ctx.lookups[pc] != Some(egraph.find(self.regs[*i])) {
                        return;
                    }
                }
                Instruction::Guard { i, pred } => {
                    // Analysis-guided pruning: reject the branch if the
                    // bound class fails the guard. The interned kind tag is
                    // tested first — one dense array read, which is the
                    // *whole* evaluation for kind-only guards — and only a
                    // guard carrying a dynamic predicate goes on to borrow
                    // the full class data and pay the `Arc<dyn>` call.
                    let guard = &ctx.guards[*pred];
                    let class = self.regs[*i];
                    if !guard.admits_tag(egraph.kind_tag(class)) {
                        return;
                    }
                    if let Some(pred) = guard.pred() {
                        if !pred(&egraph.eclass(class).data) {
                            return;
                        }
                    }
                }
            }
        }
        // All instructions passed: read the bindings out of the registers.
        let mut subst = Subst::new();
        for &(v, r) in ctx.subst_template {
            subst.insert(v, egraph.find(self.regs[r]));
        }
        out.push(subst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{Pattern, Symbol};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    fn pat(build: impl FnOnce(&mut RecExpr<ENodeOrVar<Math>>)) -> Pattern<Math> {
        let mut ast = RecExpr::default();
        build(&mut ast);
        Pattern::new(ast)
    }

    /// (* ?x 2)
    fn mul_by_two() -> Pattern<Math> {
        pat(|p| {
            let x = p.add(ENodeOrVar::Var(Var::new("x")));
            let two = p.add(ENodeOrVar::ENode(Math::Num(2)));
            p.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        })
    }

    #[test]
    fn compiles_ground_subterm_to_lookup() {
        let program = Program::compile(&mul_by_two().ast);
        let instrs = program.instructions();
        // Root bind + ground lookup for the literal 2; ?x binds a register
        // without emitting an instruction.
        assert_eq!(instrs.len(), 2);
        assert!(matches!(instrs[0], Instruction::Bind { .. }));
        assert!(matches!(instrs[1], Instruction::Lookup { .. }));
        assert!(program.root_op().is_some());
    }

    #[test]
    fn nonlinear_pattern_compiles_compare() {
        let program = Program::compile(
            &pat(|p| {
                let x1 = p.add(ENodeOrVar::Var(Var::new("x")));
                let x2 = p.add(ENodeOrVar::Var(Var::new("x")));
                p.add(ENodeOrVar::ENode(Math::Add([x1, x2])));
            })
            .ast,
        );
        assert!(program
            .instructions()
            .iter()
            .any(|i| matches!(i, Instruction::Compare { .. })));
    }

    #[test]
    fn var_root_has_no_root_op_and_matches_everything() {
        let program = Program::compile(
            &pat(|p| {
                p.add(ENodeOrVar::Var(Var::new("x")));
            })
            .ast,
        );
        assert!(program.root_op().is_none());
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([eg.find(two), two]));
        eg.rebuild();
        assert_eq!(
            search_one((&program, &[]), &eg).len(),
            eg.number_of_classes()
        );
    }

    #[test]
    fn machine_search_agrees_with_naive_on_basics() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.add(Math::Mul([mul, two]));
        eg.rebuild();
        let p = mul_by_two();
        let machine = p.search(&eg);
        let naive = p.search_naive(&eg);
        assert_eq!(machine.len(), naive.len());
        for (m, n) in machine.iter().zip(&naive) {
            assert_eq!(m.eclass, n.eclass);
            assert_eq!(m.substs, n.substs);
        }
    }

    #[test]
    fn lookup_respects_filtered_ground_nodes() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let p = mul_by_two();
        assert_eq!(p.search(&eg).len(), 1);
        // Filtering the literal 2 kills the ground lookup, exactly like the
        // naive matcher skipping the filtered node.
        eg.filter_node(&Math::Num(2));
        assert_eq!(p.search(&eg).len(), 0);
        assert_eq!(p.search_naive(&eg).len(), 0);
    }

    /// The parallel driver must return *bit-identical* output to the
    /// sequential one for every thread count, including counts far above
    /// the candidate count (shards degenerate to single classes) — the
    /// chunk-order merge is what guarantees this.
    #[test]
    fn parallel_search_is_bit_identical_for_all_thread_counts() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let two = eg.add(Math::Num(2));
        for i in 0..37 {
            let s = eg.add(sym(&format!("s{i}")));
            let m = eg.add(Math::Mul([s, two]));
            eg.add(Math::Mul([m, two]));
        }
        eg.rebuild();
        let p = mul_by_two();
        let sequential = p.search(&eg);
        assert!(!sequential.is_empty());
        for threads in [1, 2, 3, 4, 8, 64, 1000] {
            let parallel = search_all_with_threshold(&[(p.program(), &[])], &eg, threads, 0);
            assert_eq!(parallel, vec![sequential.clone()], "thread count {threads}");
        }
    }

    /// Batch driver: every program's match list equals its standalone
    /// sequential search, even when one "hot" pattern dominates the work.
    #[test]
    fn batch_parallel_search_matches_each_program() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let two = eg.add(Math::Num(2));
        let mut prev = eg.add(sym("seed"));
        for i in 0..25 {
            let s = eg.add(sym(&format!("x{i}")));
            let m = eg.add(Math::Mul([s, two]));
            prev = eg.add(Math::Add([prev, m]));
        }
        eg.rebuild();
        let hot = pat(|p| {
            let x = p.add(ENodeOrVar::Var(Var::new("x")));
            let y = p.add(ENodeOrVar::Var(Var::new("y")));
            p.add(ENodeOrVar::ENode(Math::Add([x, y])));
        });
        let cold = mul_by_two();
        let var_root = pat(|p| {
            p.add(ENodeOrVar::Var(Var::new("x")));
        });
        let programs = [
            (hot.program(), &[] as &[_]),
            (cold.program(), &[] as &[_]),
            (var_root.program(), &[] as &[_]),
        ];
        let batch = search_all_with_threshold(&programs, &eg, 4, 0);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], hot.search(&eg));
        assert_eq!(batch[1], cold.search(&eg));
        assert_eq!(batch[2], var_root.search(&eg));
    }

    /// Test analysis: a class's data is the largest integer literal it
    /// contains, or `-1` if it contains none.
    #[derive(Clone, Copy, Default)]
    struct MaxNum;
    impl crate::Analysis<Math> for MaxNum {
        type Data = i64;
        fn make(egraph: &EGraph<Math, Self>, enode: &Math) -> i64 {
            match enode {
                Math::Num(n) => *n,
                _ if enode.children().is_empty() => -1,
                _ => enode
                    .children()
                    .iter()
                    .map(|&c| egraph.eclass(c).data)
                    .max()
                    .unwrap_or(-1)
                    .min(-1), // operators do not inherit literals
            }
        }
        fn merge(&mut self, to: &mut i64, from: i64) -> crate::DidMerge {
            crate::merge_max(to, from)
        }
        fn kind_tag(data: &i64) -> u8 {
            (*data >= 0) as u8
        }
    }

    #[test]
    fn guard_is_emitted_right_after_the_binding() {
        let program = Program::compile_guarded(&mul_by_two().ast, &[Var::new("x")]);
        let instrs = program.instructions();
        // Bind fills register 1 with ?x's class; the guard checks it before
        // the ground lookup for the literal 2 runs.
        assert_eq!(instrs.len(), 3);
        assert!(matches!(instrs[0], Instruction::Bind { .. }));
        assert!(matches!(instrs[1], Instruction::Guard { i: 1, pred: 0 }));
        assert!(matches!(instrs[2], Instruction::Lookup { .. }));
        assert_eq!(program.guard_vars(), &[Var::new("x")]);
    }

    /// Regression test for the guard-placement bug: a variable whose
    /// register is filled by the *root* Bind must be guarded before any
    /// deeper Bind runs. The original compiler emitted the guard at the
    /// variable's BFS visit position, which for (* (* ?x ?p) ?p) put it
    /// *after* the inner Bind — every candidate enumerated the inner
    /// class's nodes before the doomed ?p binding was rejected.
    #[test]
    fn guard_on_shallow_register_precedes_deeper_binds() {
        let p = pat(|pa| {
            let x = pa.add(ENodeOrVar::Var(Var::new("x")));
            let pv = pa.add(ENodeOrVar::Var(Var::new("p")));
            let inner = pa.add(ENodeOrVar::ENode(Math::Mul([x, pv])));
            let pv2 = pa.add(ENodeOrVar::Var(Var::new("p")));
            pa.add(ENodeOrVar::ENode(Math::Mul([inner, pv2])));
        });
        let program = Program::compile_guarded(&p.ast, &[Var::new("p")]);
        let instrs = program.instructions();
        assert_eq!(instrs.len(), 4);
        assert!(matches!(instrs[0], Instruction::Bind { .. }), "root bind");
        assert!(
            matches!(instrs[1], Instruction::Guard { i: 2, pred: 0 }),
            "?p (register 2, filled by the root bind) is guarded before \
             the inner bind, got {instrs:?}"
        );
        assert!(matches!(instrs[2], Instruction::Bind { .. }), "inner bind");
        assert!(matches!(instrs[3], Instruction::Compare { i: 2, j: 4 }));
    }

    #[test]
    fn guarded_search_equals_unguarded_search_filtered_by_predicate() {
        let mut eg: EGraph<Math, MaxNum> = EGraph::new(MaxNum);
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let three = eg.add(Math::Num(3));
        eg.add(Math::Mul([a, two])); // ?x -> a: data -1, pruned
        eg.add(Math::Mul([three, two])); // ?x -> 3: data 3, kept
        eg.rebuild();

        let pattern = mul_by_two();
        let pred = |d: &i64| *d >= 0;
        let guarded =
            GuardedProgram::compile(&pattern.ast, &[(Var::new("x"), Guard::from_fn(pred))]);

        let unguarded = pattern.search(&eg);
        assert_eq!(unguarded.len(), 2);
        let expected: Vec<SearchMatches> = unguarded
            .into_iter()
            .filter(|m| {
                m.substs
                    .iter()
                    .all(|s| pred(&eg.eclass(s[Var::new("x")]).data))
            })
            .collect();
        assert_eq!(expected.len(), 1);
        assert_eq!(search_one(guarded.query(), &eg), expected);
        // Parallel guarded search is bit-identical too.
        for threads in [1, 2, 4, 8] {
            let parallel = search_all_with_threshold(&[guarded.query()], &eg, threads, 0);
            assert_eq!(parallel, vec![expected.clone()]);
        }
    }

    /// A pure tag-mask guard prunes exactly the classes whose interned kind
    /// tag falls outside the mask — with no predicate call at all. MaxNum
    /// tags literal-holding classes 1 and operator classes 0.
    #[test]
    fn tag_mask_guard_prunes_by_interned_tag() {
        let mut eg: EGraph<Math, MaxNum> = EGraph::new(MaxNum);
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let three = eg.add(Math::Num(3));
        eg.add(Math::Mul([a, two])); // ?x -> a: tag 0, pruned
        let kept = eg.add(Math::Mul([three, two])); // ?x -> 3: tag 1, kept
        eg.rebuild();
        assert_eq!(eg.kind_tag(a), 0);
        assert_eq!(eg.kind_tag(three), 1);

        let pattern = mul_by_two();
        let guard: Guard<i64> = Guard::tags(1 << 1);
        assert!(guard.pred().is_none(), "kind-only guard carries no dyn fn");
        let guarded = GuardedProgram::compile(&pattern.ast, &[(Var::new("x"), guard)]);
        let ms = search_one(guarded.query(), &eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].eclass, eg.find(kept));
    }

    #[test]
    fn duplicate_guards_for_one_variable_are_conjoined() {
        let mut eg: EGraph<Math, MaxNum> = EGraph::new(MaxNum);
        let two = eg.add(Math::Num(2));
        let four = eg.add(Math::Num(4));
        eg.add(Math::Mul([two, two])); // 2: even but < 3, pruned
        eg.add(Math::Mul([four, two])); // 4: even and >= 3, kept
        eg.rebuild();
        let pattern = mul_by_two();
        let even = Guard::from_fn(|d: &i64| d % 2 == 0);
        let big = Guard::from_fn(|d: &i64| *d >= 3);
        let guarded =
            GuardedProgram::compile(&pattern.ast, &[(Var::new("x"), even), (Var::new("x"), big)]);
        let ms = search_one(guarded.query(), &eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].substs[0][Var::new("x")], eg.find(four));
    }

    #[test]
    #[should_panic(expected = "guard table size mismatch")]
    fn plain_search_on_guard_compiled_program_panics() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        eg.add(sym("a"));
        eg.rebuild();
        let program = Program::compile_guarded(&mul_by_two().ast, &[Var::new("x")]);
        let _ = search_one((&program, &[]), &eg);
    }

    /// The clean check is a `debug_assert!`: the panic only exists in debug
    /// builds, so release builds skip the test.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dirty")]
    fn machine_search_asserts_clean() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let b = eg.add(sym("b"));
        eg.union(a, b);
        let p = mul_by_two();
        let _ = p.search(&eg);
    }
}
