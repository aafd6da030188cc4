//! A deterministic branch-and-bound solver for mixed 0/1 linear programs.
//!
//! The solver is exact given enough time: it enumerates the integral
//! variables depth-first with constraint propagation (bound tightening) at
//! every node and prunes with a partial-assignment lower bound and the best
//! incumbent found so far. Before branching, a *presolve* propagation
//! fixpoint on the root bounds fixes every variable implied by the
//! constraints alone ([`Solution::presolve_fixed`] counts them). A
//! warm-start hint can seed the incumbent (TENSAT seeds it with the greedy
//! extraction), and wall clock / node limits turn the solver into an
//! any-time procedure — the role SCIP plays in the original system. When a
//! limit stops the search, [`Solution::bound`] still reports a proven lower
//! bound.
//!
//! Covering rows over binary variables with nonnegative costs are
//! collected into variable-disjoint *cover groups*: the rows `sum(x_v) >= 1`
//! / `== 1` and the implications `x_t - sum(x_v) <= 0` that share one
//! member set. Extraction encodings are made of such rows (one group per
//! e-class, one implication per parent candidate). A group replaces its
//! rows outright: it keeps counts of selected and available members and the
//! list of rows in force, propagates the rows' rules on those counts, and
//! charges its cheapest available member to the lower bound. On the
//! bench-grown extraction problems that bound proves greedy-seeded
//! incumbents optimal quickly, but at saturation scale it is weak: at the
//! root it is 10.04 on saturated BERT against an incumbent of 97.53, and
//! 0.0 on Inception-v3's largest component against 22.39.
//!
//! Each node costs time in proportion to the groups and rows it touches,
//! not to the size of the problem. The search keeps one `lo`/`hi` bound
//! array and an undo trail with a mark per decision, so moving between
//! nodes replays only the bound changes in between. A bound change updates
//! its variable's group once and each group it triggers once. Every row
//! outside the groups (partial overlaps, the cycle constraints, rows over
//! continuous or wide integer variables) carries its minimum and maximum
//! activity, kept current as bounds move; such a row is queued for
//! propagation only when the side of its activity that can tighten a bound
//! changed and its slack is within the widest term range of the row.
//! Propagation runs both queues to a fixpoint — the same fixpoint a sweep
//! over every row reaches, because bound tightening is monotone. The
//! objective lower bound, the cheap completion's row activities, and the
//! ordered set of rows it violates are likewise kept current, so the first
//! violated row, the branching choice, is a lookup, and so is its costliest
//! unfixed variable when a group owns the row.
//!
//! An optional *incumbent check* ([`Solver::solve_checked`]) vets every
//! assignment before it becomes the incumbent. The check must reject whole
//! subtrees: a rejected completion is not recorded and its node is pruned,
//! so the search stays exact over the accepted assignments;
//! [`Solution::rejected`] counts the rejections.
//!
//! Continuous variables (the topological-order variables of the cycle
//! constraints, paper §5.1) are handled by bound propagation: once all
//! integral variables are fixed, every continuous variable is set to its
//! propagated lower bound, which is feasible for difference-style
//! constraint systems and optimal when (as in the extraction encoding) the
//! continuous variables do not appear in the objective.

use crate::problem::{Cmp, Problem, VarId, VarKind};
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The returned solution is provably optimal: the search finished and
    /// the incumbent check rejected nothing.
    Optimal,
    /// A feasible solution was found, but the search hit a limit before
    /// proving optimality, or the incumbent check rejected an assignment
    /// (if the search finished, the solution is optimal among the accepted
    /// assignments).
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// No accepted solution was found: a limit was hit first, or the
    /// incumbent check rejected every feasible assignment the search
    /// reached.
    Unknown,
}

/// The budget that ended a search before it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// The wall-clock limit ([`Solver::time_limit`]).
    Time,
    /// The node limit ([`Solver::node_limit`]).
    Nodes,
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Limit::Time => "time",
            Limit::Nodes => "nodes",
        })
    }
}

/// The result of solving a [`Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve status.
    pub status: Status,
    /// Variable values (empty when no feasible solution was found).
    pub values: Vec<f64>,
    /// Objective value of `values` (infinite when none).
    pub objective: f64,
    /// A proven lower bound, to within the solver tolerance, on the
    /// objective of every feasible accepted assignment: the objective when
    /// the search finished, else the lowest lower bound over the incumbent
    /// and the nodes still open when a limit stopped it. `objective -
    /// bound` is the optimality gap.
    pub bound: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Number of integral variables the root presolve fixed before any
    /// branching (bounds collapsed by constraint propagation alone).
    pub presolve_fixed: usize,
    /// The budget that stopped the search early (`None` when the search
    /// finished).
    pub limit: Option<Limit>,
    /// Improving feasible assignments the incumbent check rejected (a
    /// warm-start hint included). Each rejection pruned the node that
    /// produced it.
    pub rejected: usize,
    /// Wall-clock time spent.
    pub solve_time: Duration,
}

impl Solution {
    /// The value of a variable in the best solution found.
    ///
    /// # Panics
    ///
    /// Panics if no feasible solution was found.
    pub fn value(&self, var: VarId) -> f64 {
        assert!(
            !self.values.is_empty(),
            "no feasible solution was found (status {:?})",
            self.status
        );
        self.values[var.0]
    }

    /// True if a feasible assignment is available.
    pub fn has_solution(&self) -> bool {
        !self.values.is_empty()
    }
}

/// Branch-and-bound solver configuration.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Wall-clock limit for the search.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: usize,
    /// Numerical tolerance.
    pub tolerance: f64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            time_limit: Duration::from_secs(60),
            node_limit: 2_000_000,
            tolerance: 1e-6,
        }
    }
}

/// An incumbent check: `true` accepts a feasible assignment.
type Accept<'a> = &'a mut dyn FnMut(&[f64]) -> bool;

impl Solver {
    /// Creates a solver with the given time limit.
    pub fn with_time_limit(time_limit: Duration) -> Self {
        Solver {
            time_limit,
            ..Default::default()
        }
    }

    /// Solves a problem to minimality (or best effort within limits).
    pub fn solve(&self, problem: &Problem) -> Solution {
        self.solve_checked(problem, None, &mut |_| true)
    }

    /// Solves with a warm-start hint: a (hopefully feasible) assignment used
    /// to seed the incumbent and guide branching.
    pub fn solve_with_hint(&self, problem: &Problem, hint: &[f64]) -> Solution {
        self.solve_checked(problem, Some(hint), &mut |_| true)
    }

    /// Solves with an optional warm-start hint and an incumbent check.
    ///
    /// `accept` sees every feasible assignment that would improve the
    /// incumbent (the hint included) and returns whether to keep it. A
    /// rejected assignment is not recorded, and the node that produced it
    /// is pruned, so `accept` must reject whole subtrees: rejecting a node's
    /// cheap completion must imply rejecting every assignment within that
    /// node's bounds. On 0/1 problems with nonnegative costs the cheap
    /// completion sets exactly the variables fixed to 1, so any check that
    /// still rejects after more variables are set to 1 qualifies. The
    /// result is then optimal among the accepted assignments.
    /// [`Status::Optimal`] is reported only when the search finished and
    /// nothing was rejected.
    pub fn solve_checked(
        &self,
        problem: &Problem,
        hint: Option<&[f64]>,
        accept: &mut dyn FnMut(&[f64]) -> bool,
    ) -> Solution {
        let start = Instant::now();
        let mut search = Search::new(problem, self, hint, accept, start);
        // Seed the incumbent with the hint if it is feasible and accepted.
        if let Some(h) = hint {
            if problem.is_feasible(h, self.tolerance) {
                search.offer(h.to_vec(), problem.objective_value(h));
            }
        }

        // Presolve: one propagation fixpoint on the root bounds. Variables
        // whose domains collapse here are implied by the constraints alone
        // and never branched on; the tightened bounds seed the whole search.
        let free_before = search.free_integral();
        search.queue_everything();
        let root_feasible = search.propagate();
        let presolve_fixed = free_before.saturating_sub(search.free_integral());
        if !root_feasible {
            // Propagation is exact (it only removes provably impossible
            // values), so a root conflict proves infeasibility outright —
            // a feasible hint cannot exist in this case.
            return Solution {
                status: Status::Infeasible,
                values: vec![],
                objective: f64::INFINITY,
                bound: f64::INFINITY,
                nodes_explored: 0,
                presolve_fixed,
                limit: None,
                rejected: search.rejected,
                solve_time: start.elapsed(),
            };
        }
        // The root bounds are never undone: drop their trail and rebuild
        // every derived quantity from them exactly.
        search.trail.clear();
        search.rebuild_derived();
        let bound = search.branch();

        let status = match (&search.best_values, search.limit, search.rejected) {
            (Some(_), None, 0) => Status::Optimal,
            (Some(_), ..) => Status::Feasible,
            (None, None, 0) => Status::Infeasible,
            (None, ..) => Status::Unknown,
        };
        Solution {
            status,
            objective: search.best_objective,
            bound,
            values: search.best_values.unwrap_or_default(),
            nodes_explored: search.nodes,
            presolve_fixed,
            limit: search.limit,
            rejected: search.rejected,
            solve_time: start.elapsed(),
        }
    }
}

/// A cover group: every always row (`sum(members) >= 1` or `== 1`) and
/// every implication row (`trigger - sum(members) <= 0`) over one member
/// set, propagated, bounded and branched on as a unit. None of these rows
/// is kept as a generic [`Row`].
///
/// Over binaries the rows' activity rules reduce to counts. The group is
/// *active* while some row is in force (an always row, or an implication
/// whose trigger is 1), and satisfied once a member is selected:
/// - no member left: every trigger is fixed to 0 (a conflict if active);
/// - active, unsatisfied, one member left: that member is fixed to 1;
/// - an `==` group with one member selected: every other member is fixed
///   to 0 (a conflict if two are).
///
/// Members and triggers cost nothing negative, so the cheap completion
/// sets exactly the variables whose lower bound is 1: a row in force is
/// violated iff the group is unsatisfied.
struct CoverGroup {
    /// The members, cheapest first (ties to the lower index): the cover
    /// charge is the first available one.
    members: Vec<usize>,
    /// The members, costliest first (ties to the lower index): branching
    /// on a violated row of the group takes the first available one.
    dear: Vec<usize>,
    /// An `==` row covers the group: at most one member may be selected.
    exactly_one: bool,
    /// `(trigger, row)` of each implication row.
    triggers: Vec<(usize, usize)>,
    /// The number of always rows, which lead `active_rows` for good.
    always: usize,
    /// The rows in force: the always rows, then each implication row whose
    /// trigger is 1, in the order the triggers were set, so the trail
    /// removes them from the end.
    active_rows: Vec<usize>,
    /// Members whose lower bound is 1.
    selected: usize,
    /// Members whose upper bound is 1.
    available: usize,
    /// Positions in `members` and `dear` with no available member before
    /// them. Bounds only tighten down a branch, so the cursors only
    /// advance; the trail moves them back.
    cheap: usize,
    dear_at: usize,
    /// What the group adds to the lower bound: its cheapest available
    /// member while active and unsatisfied, else nothing.
    charge: f64,
    /// Queued for propagation.
    queued: bool,
}

/// Collects pairwise member-disjoint cover groups from two row shapes over
/// unit coefficients and distinct binary variables with nonnegative
/// objective coefficients: `sum(x_v) >= 1` / `== 1` (always rows) and
/// `x_t - sum(x_v) <= 0` (implication rows, triggered by `x_t`). Rows with
/// the same member set join one group. Scanned in constraint order,
/// greedily skipping any row whose member set partially overlaps an
/// earlier group, so the collection is deterministic. Also returns the
/// group that absorbed each row (`None` for the rows that stay generic).
fn cover_groups(problem: &Problem, tol: f64) -> (Vec<CoverGroup>, Vec<Option<usize>>) {
    let mut group_of = vec![usize::MAX; problem.num_vars()];
    let mut groups: Vec<CoverGroup> = vec![];
    let mut row_group = vec![None; problem.num_constraints()];
    let member_ok =
        |v: VarId| problem.kinds()[v.0] == VarKind::Binary && problem.objective()[v.0] >= 0.0;
    // Resolves the member set (sorted, distinct) to a group slot: an
    // existing group with exactly this set, a fresh one when no member is
    // taken, or None on a partial overlap.
    let mut slot_for = |members: &[usize], groups: &mut Vec<CoverGroup>| -> Option<usize> {
        let first = group_of[members[0]];
        if first != usize::MAX {
            let same = groups[first].members.len() == members.len()
                && members.iter().all(|&m| group_of[m] == first);
            return same.then_some(first);
        }
        if members.iter().any(|&m| group_of[m] != usize::MAX) {
            return None;
        }
        for &m in members {
            group_of[m] = groups.len();
        }
        groups.push(CoverGroup {
            members: members.to_vec(),
            dear: vec![],
            exactly_one: false,
            triggers: vec![],
            always: 0,
            active_rows: vec![],
            selected: 0,
            available: 0,
            cheap: 0,
            dear_at: 0,
            charge: 0.0,
            queued: false,
        });
        Some(groups.len() - 1)
    };
    let distinct = |mut members: Vec<usize>| {
        members.sort_unstable();
        members.windows(2).all(|w| w[0] != w[1]).then_some(members)
    };
    for (r, c) in problem.constraints().iter().enumerate() {
        if matches!(c.cmp, Cmp::Ge | Cmp::Eq)
            && (c.rhs - 1.0).abs() <= tol
            && !c.terms.is_empty()
            && c.terms
                .iter()
                .all(|&(v, coef)| (coef - 1.0).abs() <= tol && member_ok(v))
        {
            let Some(members) = distinct(c.terms.iter().map(|&(v, _)| v.0).collect()) else {
                continue;
            };
            if let Some(g) = slot_for(&members, &mut groups) {
                let group = &mut groups[g];
                group.always += 1;
                group.active_rows.push(r);
                group.exactly_one |= c.cmp == Cmp::Eq;
                row_group[r] = Some(g);
            }
        } else if c.cmp == Cmp::Le && c.rhs.abs() <= tol {
            let mut trigger = None;
            let mut members = vec![];
            let mut usable = true;
            for &(v, coef) in &c.terms {
                usable &= member_ok(v);
                if (coef - 1.0).abs() <= tol {
                    usable &= trigger.is_none();
                    trigger = Some(v.0);
                } else if (coef + 1.0).abs() <= tol {
                    members.push(v.0);
                } else {
                    usable = false;
                }
            }
            let Some(trigger) = trigger else { continue };
            if !usable || members.is_empty() {
                continue;
            }
            let Some(members) = distinct(members) else {
                continue;
            };
            if let Some(g) = slot_for(&members, &mut groups) {
                groups[g].triggers.push((trigger, r));
                row_group[r] = Some(g);
            }
        }
    }
    (groups, row_group)
}

/// True if `lhs cmp rhs` fails by more than `tol`.
fn violates(cmp: Cmp, lhs: f64, rhs: f64, tol: f64) -> bool {
    match cmp {
        Cmp::Le => lhs > rhs + tol,
        Cmp::Ge => lhs < rhs - tol,
        Cmp::Eq => (lhs - rhs).abs() > tol,
    }
}

/// One side of a row's activity range: the sum of the finite term
/// contributions plus the number of infinite ones (a term over an unbounded
/// domain), so the sum stays exact to update as bounds move.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    finite: f64,
    infinite: u32,
}

impl Activity {
    fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.finite += x;
        } else {
            self.infinite += 1;
        }
    }

    fn replace(&mut self, old: f64, new: f64) {
        if old.is_finite() {
            self.finite -= old;
        } else {
            self.infinite -= 1;
        }
        self.add(new);
    }
}

/// The state of one generic row (a constraint outside every cover group),
/// kept in one place so a bound change touches one cache line per row it
/// appears in.
struct Row {
    /// The constraint's index in the problem.
    index: usize,
    cmp: Cmp,
    rhs: f64,
    /// The widest `|coef| * (domain width)` over the row's terms: no bound
    /// can tighten while the row's slack is at least this.
    max_range: f64,
    min_act: Activity,
    max_act: Activity,
    /// The activity under the cheap completion.
    lhs: f64,
    queued: bool,
}

impl Row {
    /// The row bounds its activity from above (`<=` or `==`).
    fn le(&self) -> bool {
        matches!(self.cmp, Cmp::Le | Cmp::Eq)
    }

    /// The row bounds its activity from below (`>=` or `==`).
    fn ge(&self) -> bool {
        matches!(self.cmp, Cmp::Ge | Cmp::Eq)
    }
}

/// A set of row indices with an ordered "next member" query: one bit per
/// row plus one summary bit per nonzero word, so the search for the first
/// violated row skips 4096 rows per summary word.
struct RowSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl RowSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        RowSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The smallest member `>= from`.
    fn next(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = *self.words.get(w)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = w + 1;
        let mut s = w / 64;
        let mut summary = *self.summary.get(s)? & (!0u64 << (w % 64));
        loop {
            if summary != 0 {
                let w = s * 64 + summary.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
            s += 1;
            summary = *self.summary.get(s)?;
        }
    }
}

/// One undoable change.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// `lo[var]` was the given value.
    Lo(usize, f64),
    /// `hi[var]` was the given value.
    Hi(usize, f64),
    /// Cover group `g` was charged the given amount.
    Charge(usize, f64),
    /// Cover group `g`'s cheapest-member cursor was at the given position.
    Cheap(usize, usize),
    /// Cover group `g`'s costliest-member cursor was at the given position.
    Dear(usize, usize),
}

/// The scalar search state, saved whole with every open node.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    /// The bounds-only objective term: each variable at its
    /// objective-cheapest bound (the cheap completion's objective).
    obj_term: f64,
    /// Sum of the cover-group charges.
    group_sum: f64,
}

impl Scalars {
    /// A valid lower bound on the objective under the bounds these scalars
    /// were kept for: the bounds-only term plus every active, unsatisfied
    /// cover group's cheapest available member. The member sets are
    /// variable-disjoint, so the charges add without double counting.
    fn lower_bound(&self) -> f64 {
        self.obj_term + self.group_sum
    }
}

/// An open node: the parent's state (the trail mark and its scalars) plus
/// the decision that makes the child.
struct Frame {
    mark: usize,
    scalars: Scalars,
    /// `(var, lo, hi)`: the new bounds of the branching variable (`None`
    /// for the root).
    decision: Option<(usize, f64, f64)>,
}

struct Search<'a> {
    problem: &'a Problem,
    cfg: &'a Solver,
    tol: f64,
    start: Instant,
    hint: Option<&'a [f64]>,
    accept: Accept<'a>,
    nodes: usize,
    best_values: Option<Vec<f64>>,
    best_objective: f64,
    limit: Option<Limit>,
    rejected: usize,

    integral: Vec<bool>,
    /// The rows outside every cover group.
    rows: Vec<Row>,
    /// The cover group that absorbed each problem row, if any.
    row_group: Vec<Option<usize>>,
    /// The `(generic row, coef)` occurrences of variable `v` are
    /// `occ[occ_start[v]..occ_start[v + 1]]`.
    occ_start: Vec<usize>,
    occ: Vec<(usize, f64)>,
    /// Pairwise member-disjoint cover groups. Every active unsatisfied
    /// group independently forces at least its cheapest available member
    /// into any completion — a valid additive strengthening of the
    /// bounds-only objective lower bound, because the member sets share no
    /// variables. In an extraction encoding committing to a candidate
    /// immediately charges every class it pulls in at that class's
    /// cheapest rate.
    groups: Vec<CoverGroup>,
    member_of: Vec<Option<usize>>,
    /// The `(group, row)` implications variable `v` triggers are
    /// `trig[trig_start[v]..trig_start[v + 1]]`.
    trig_start: Vec<usize>,
    trig: Vec<(usize, usize)>,

    lo: Vec<f64>,
    hi: Vec<f64>,
    trail: Vec<Undo>,
    queue: VecDeque<usize>,
    group_queue: Vec<usize>,
    /// Rows the cheap completion violates by more than the tolerance.
    violated: RowSet,
    /// Rows it violates by more than ten times the tolerance (the
    /// feasibility test's slack): the completion is feasible iff zero. A
    /// grouped row's activity is integral, so both tests agree on it.
    hard_violated: usize,
    scalars: Scalars,
}

/// Compressed lists: entry `i` of `lists` lands in
/// `items[start[i]..start[i + 1]]`, in order.
fn compress<T: Copy + Default>(
    n: usize,
    lists: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut start = vec![0; n + 1];
    for (i, _) in lists.clone() {
        start[i + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut items = vec![T::default(); start[n]];
    for (i, item) in lists {
        items[fill[i]] = item;
        fill[i] += 1;
    }
    (start, items)
}

impl<'a> Search<'a> {
    fn new(
        problem: &'a Problem,
        cfg: &'a Solver,
        hint: Option<&'a [f64]>,
        accept: Accept<'a>,
        start: Instant,
    ) -> Self {
        let n = problem.num_vars();
        let kinds = problem.kinds();
        let obj = problem.objective();
        let (mut groups, row_group) = cover_groups(problem, cfg.tolerance);
        let mut rows = vec![];
        for (r, c) in problem.constraints().iter().enumerate() {
            if row_group[r].is_some() {
                continue;
            }
            rows.push(Row {
                index: r,
                cmp: c.cmp,
                rhs: c.rhs,
                max_range: c
                    .terms
                    .iter()
                    .map(|&(v, coef)| coef.abs() * (kinds[v.0].hi() - kinds[v.0].lo()))
                    .fold(0.0, f64::max),
                min_act: Activity::default(),
                max_act: Activity::default(),
                lhs: 0.0,
                queued: false,
            });
        }
        let constraints = problem.constraints();
        let (occ_start, occ) = compress(
            n,
            rows.iter().enumerate().flat_map(|(k, row)| {
                (constraints[row.index].terms.iter()).map(move |&(v, coef)| (v.0, (k, coef)))
            }),
        );
        let mut member_of = vec![None; n];
        for (g, group) in groups.iter_mut().enumerate() {
            group
                .members
                .sort_by(|&a, &b| obj[a].total_cmp(&obj[b]).then(a.cmp(&b)));
            // Ranked by |cost| like `costliest_unfixed`, so both pick alike
            // (a cost of -0.0 included).
            group.dear = group.members.clone();
            group
                .dear
                .sort_by(|&a, &b| obj[b].abs().total_cmp(&obj[a].abs()).then(a.cmp(&b)));
            for &v in &group.members {
                member_of[v] = Some(g);
            }
        }
        let (trig_start, trig) = compress(
            n,
            groups
                .iter()
                .enumerate()
                .flat_map(|(g, group)| group.triggers.iter().map(move |&(t, r)| (t, (g, r)))),
        );
        let mut search = Search {
            problem,
            cfg,
            tol: cfg.tolerance,
            start,
            hint,
            accept,
            nodes: 0,
            best_values: None,
            best_objective: f64::INFINITY,
            limit: None,
            rejected: 0,
            integral: kinds.iter().map(VarKind::is_integral).collect(),
            rows,
            row_group,
            occ_start,
            occ,
            groups,
            member_of,
            trig_start,
            trig,
            lo: kinds.iter().map(VarKind::lo).collect(),
            hi: kinds.iter().map(VarKind::hi).collect(),
            trail: vec![],
            queue: VecDeque::new(),
            group_queue: vec![],
            violated: RowSet::new(problem.num_constraints()),
            hard_violated: 0,
            scalars: Scalars {
                obj_term: 0.0,
                group_sum: 0.0,
            },
        };
        search.rebuild_derived();
        search
    }

    /// Integral variables whose domain is not yet a single value.
    fn free_integral(&self) -> usize {
        (0..self.lo.len())
            .filter(|&i| self.integral[i] && self.hi[i] - self.lo[i] > self.tol)
            .count()
    }

    /// True when `v`'s lower bound is 1 (a binary is set).
    fn is_set(&self, v: usize) -> bool {
        self.lo[v] >= 1.0 - self.tol
    }

    /// True when `v`'s upper bound is 1 (a binary may still be set).
    fn can_set(&self, v: usize) -> bool {
        self.hi[v] >= 1.0 - self.tol
    }

    /// The cheap completion's value for `v`: whichever bound minimizes its
    /// objective term.
    fn completion_value(&self, v: usize) -> f64 {
        if self.problem.objective()[v] >= 0.0 {
            self.lo[v]
        } else {
            self.hi[v]
        }
    }

    /// Generic row `k`'s minimum, maximum and cheap-completion activities,
    /// summed afresh from the current bounds.
    fn fresh_activities(&self, k: usize) -> (Activity, Activity, f64) {
        let (mut min_act, mut max_act, mut lhs) = (Activity::default(), Activity::default(), 0.0);
        for &(v, coef) in &self.problem.constraints()[self.rows[k].index].terms {
            let (at_lo, at_hi) = (coef * self.lo[v.0], coef * self.hi[v.0]);
            if coef > 0.0 {
                min_act.add(at_lo);
                max_act.add(at_hi);
            } else {
                min_act.add(at_hi);
                max_act.add(at_lo);
            }
            lhs += coef * self.completion_value(v.0);
        }
        (min_act, max_act, lhs)
    }

    /// The rows of group `g` in force under the current bounds, recomputed:
    /// its always rows, then its implications with a set trigger.
    fn fresh_active_rows(&self, g: usize) -> Vec<usize> {
        let group = &self.groups[g];
        let implications = group.triggers.iter().filter(|&&(t, _)| self.is_set(t));
        (group.active_rows[..group.always].iter().copied())
            .chain(implications.map(|&(_, r)| r))
            .collect()
    }

    /// The first member of group `g` in `order` at or after `at` that may
    /// still be set.
    fn first_available(&self, order: &[usize], at: usize) -> Option<usize> {
        (order[at..].iter().position(|&v| self.can_set(v))).map(|k| at + k)
    }

    /// Recomputes every derived quantity from `lo`/`hi` from scratch, in
    /// the summation order a fresh evaluation uses.
    fn rebuild_derived(&mut self) {
        let tol = self.tol;
        self.violated = RowSet::new(self.row_group.len());
        self.hard_violated = 0;
        for k in 0..self.rows.len() {
            let (min_act, max_act, lhs) = self.fresh_activities(k);
            let row = &mut self.rows[k];
            (row.min_act, row.max_act, row.lhs) = (min_act, max_act, lhs);
            if violates(row.cmp, lhs, row.rhs, tol) {
                self.violated.insert(row.index);
            }
            if violates(row.cmp, lhs, row.rhs, tol * 10.0) {
                self.hard_violated += 1;
            }
        }
        let problem = self.problem;
        self.scalars.obj_term = problem
            .objective()
            .iter()
            .enumerate()
            .map(|(i, &c)| c * self.completion_value(i))
            .sum();
        self.scalars.group_sum = 0.0;
        for g in 0..self.groups.len() {
            let active_rows = self.fresh_active_rows(g);
            let group = &self.groups[g];
            let selected = group.members.iter().filter(|&&v| self.is_set(v)).count();
            let available = group.members.iter().filter(|&&v| self.can_set(v)).count();
            let cheap = self.first_available(&group.members, 0);
            let dear_at = self.first_available(&group.dear, 0);
            let charge = self.group_charge(g);
            let group = &mut self.groups[g];
            let len = group.members.len();
            (group.selected, group.available) = (selected, available);
            (group.cheap, group.dear_at) = (cheap.unwrap_or(len), dear_at.unwrap_or(len));
            group.charge = charge;
            self.scalars.group_sum += charge;
            if selected == 0 {
                for &r in &active_rows {
                    self.violated.insert(r);
                }
                self.hard_violated += active_rows.len();
            }
            group.active_rows = active_rows;
        }
    }

    /// Shifts generic row `k`'s completion activity, keeping the violated
    /// set and the hard-violation count in step.
    fn shift_lhs(&mut self, k: usize, delta: f64) {
        let tol = self.tol;
        let row = &mut self.rows[k];
        let (cmp, rhs) = (row.cmp, row.rhs);
        let status = |lhs| {
            (
                violates(cmp, lhs, rhs, tol),
                violates(cmp, lhs, rhs, tol * 10.0),
            )
        };
        let was = status(row.lhs);
        row.lhs += delta;
        let now = status(row.lhs);
        if was.0 != now.0 {
            if now.0 {
                self.violated.insert(row.index);
            } else {
                self.violated.remove(row.index);
            }
        }
        if was.1 != now.1 {
            if now.1 {
                self.hard_violated += 1;
            } else {
                self.hard_violated -= 1;
            }
        }
    }

    /// What cover group `g` adds to the lower bound, recomputed: nothing
    /// when no row is in force or a member is selected, else its cheapest
    /// available member (`+inf` when none is left — an infeasibility
    /// proof, which propagation reports as a conflict first).
    fn group_charge(&self, g: usize) -> f64 {
        let group = &self.groups[g];
        let active = group.always > 0 || group.triggers.iter().any(|&(t, _)| self.is_set(t));
        if !active {
            return 0.0;
        }
        let obj = self.problem.objective();
        let mut cheapest = f64::INFINITY;
        for &i in &group.members {
            if self.is_set(i) {
                // Already selected: its cost is in the bounds-only term.
                return 0.0;
            }
            if self.can_set(i) {
                cheapest = cheapest.min(obj[i]);
            }
        }
        cheapest
    }

    /// Queues generic row `k` unless it is queued already or provably
    /// cannot tighten a bound: a side whose activity is unbounded implies
    /// nothing, and a term tightens only when the side's slack is below the
    /// term's range by more than the tolerance, so a slack of at least the
    /// row's widest range implies nothing either.
    fn queue_if_useful(&mut self, k: usize) {
        let row = &mut self.rows[k];
        let (min_act, max_act) = (row.min_act, row.max_act);
        if !row.queued
            && ((row.le() && min_act.infinite == 0 && row.rhs - min_act.finite < row.max_range)
                || (row.ge() && max_act.infinite == 0 && max_act.finite - row.rhs < row.max_range))
        {
            row.queued = true;
            self.queue.push_back(k);
        }
    }

    fn queue_group(&mut self, g: usize) {
        if !self.groups[g].queued {
            self.groups[g].queued = true;
            self.group_queue.push(g);
        }
    }

    /// Queues every generic row and every group (the presolve).
    fn queue_everything(&mut self) {
        for (k, row) in self.rows.iter_mut().enumerate() {
            if !row.queued {
                row.queued = true;
                self.queue.push_back(k);
            }
        }
        for g in 0..self.groups.len() {
            self.queue_group(g);
        }
    }

    fn set_lo(&mut self, v: usize, value: f64) {
        self.trail.push(Undo::Lo(v, self.lo[v]));
        self.move_bound(v, value, true, true);
    }

    fn set_hi(&mut self, v: usize, value: f64) {
        self.trail.push(Undo::Hi(v, self.hi[v]));
        self.move_bound(v, value, false, true);
    }

    /// Moves `lo[v]` (`is_lower`) or `hi[v]` to `value` and keeps the
    /// generic rows' activities, the completion, and the cover-group counts
    /// and row lists in step. `forward` is false when undoing: then nothing
    /// is queued (the trail restores the charges and cursors), and the
    /// scalars are left alone (the open node restores them whole).
    fn move_bound(&mut self, v: usize, value: f64, is_lower: bool, forward: bool) {
        let old = if is_lower { self.lo[v] } else { self.hi[v] };
        if is_lower {
            self.lo[v] = value;
        } else {
            self.hi[v] = value;
        }
        let completion_moves = (self.problem.objective()[v] >= 0.0) == is_lower;
        let delta = value - old;
        for k in self.occ_start[v]..self.occ_start[v + 1] {
            let (r, coef) = self.occ[k];
            // A lower bound feeds the minimum activity through a positive
            // coefficient and the maximum through a negative one.
            let row = &mut self.rows[r];
            if (coef > 0.0) == is_lower {
                row.min_act.replace(coef * old, coef * value);
            } else {
                row.max_act.replace(coef * old, coef * value);
            }
            if completion_moves {
                self.shift_lhs(r, coef * delta);
            }
            if forward {
                self.queue_if_useful(r);
            }
        }
        if forward && completion_moves {
            self.scalars.obj_term += self.problem.objective()[v] * delta;
        }
        let one = 1.0 - self.tol;
        let now = value >= one;
        if (old >= one) == now {
            return;
        }
        let member = self.member_of[v];
        let triggered = self.trig_start[v]..self.trig_start[v + 1];
        if !is_lower {
            if let Some(g) = member {
                let available = &mut self.groups[g].available;
                *available = if now { *available + 1 } else { *available - 1 };
            }
        } else if now {
            // Selection before activation, so the undo below can run the
            // two in reverse when `v` triggers its own group.
            if let Some(g) = member {
                self.select(g, true);
            }
            for k in triggered.clone() {
                let (g, r) = self.trig[k];
                self.activate(g, r, true);
            }
        } else {
            for k in triggered.clone().rev() {
                let (g, r) = self.trig[k];
                self.activate(g, r, false);
            }
            if let Some(g) = member {
                self.select(g, false);
            }
        }
        if forward {
            if let Some(g) = member {
                self.queue_group(g);
            }
            if is_lower {
                for k in triggered {
                    self.queue_group(self.trig[k].0);
                }
            }
        }
    }

    /// Counts a member of group `g` in (`on`) or out of the selection. When
    /// the group's satisfaction flips, each row in force leaves or joins
    /// the violated set.
    fn select(&mut self, g: usize, on: bool) {
        let group = &mut self.groups[g];
        if on {
            group.selected += 1;
        } else {
            group.selected -= 1;
        }
        if group.selected != usize::from(on) {
            return;
        }
        for &r in &group.active_rows {
            if on {
                self.violated.remove(r);
            } else {
                self.violated.insert(r);
            }
        }
        if on {
            self.hard_violated -= group.active_rows.len();
        } else {
            self.hard_violated += group.active_rows.len();
        }
    }

    /// Puts implication row `r` of group `g` in force (`on`, its trigger
    /// was set) or takes it out (undoing that, so it is the last row in).
    fn activate(&mut self, g: usize, r: usize, on: bool) {
        let group = &mut self.groups[g];
        if on {
            group.active_rows.push(r);
        } else {
            let last = group.active_rows.pop();
            debug_assert_eq!(last, Some(r), "rows leave in reverse order");
        }
        if group.selected == 0 {
            if on {
                self.violated.insert(r);
                self.hard_violated += 1;
            } else {
                self.violated.remove(r);
                self.hard_violated -= 1;
            }
        }
    }

    /// Advances group `g`'s cheapest-member (or, `dear`, costliest-member)
    /// cursor to the first member that may still be set, on the trail, and
    /// returns that member (`None` when none is left).
    fn advance_cursor(&mut self, g: usize, dear: bool) -> Option<usize> {
        let group = &self.groups[g];
        let (order, old) = if dear {
            (&group.dear, group.dear_at)
        } else {
            (&group.members, group.cheap)
        };
        let at = self.first_available(order, old)?;
        let v = order[at];
        if at != old {
            let group = &mut self.groups[g];
            if dear {
                self.trail.push(Undo::Dear(g, old));
                group.dear_at = at;
            } else {
                self.trail.push(Undo::Cheap(g, old));
                group.cheap = at;
            }
        }
        Some(v)
    }

    /// Applies group `g`'s rules (see [`CoverGroup`]) and recharges it.
    /// Returns false on a conflict.
    fn settle_group(&mut self, g: usize) -> bool {
        let group = &self.groups[g];
        let active = !group.active_rows.is_empty();
        if (group.exactly_one && group.selected > 1) || (active && group.available == 0) {
            return false;
        }
        if group.available == 0 {
            for k in 0..group.triggers.len() {
                let t = self.groups[g].triggers[k].0;
                if self.can_set(t) {
                    self.set_hi(t, 0.0);
                }
            }
        } else if active && group.selected == 0 && group.available == 1 {
            let last = self.advance_cursor(g, false).expect("one member is left");
            self.set_lo(last, 1.0);
        }
        let group = &self.groups[g];
        if group.exactly_one && group.selected == 1 && group.available > 1 {
            for k in 0..group.members.len() {
                let v = self.groups[g].members[k];
                if !self.is_set(v) && self.can_set(v) {
                    self.set_hi(v, 0.0);
                }
            }
        }
        self.recharge(g);
        true
    }

    /// Brings group `g`'s charge and the charge sum up to date.
    fn recharge(&mut self, g: usize) {
        let group = &self.groups[g];
        let new = if group.active_rows.is_empty() || group.selected > 0 {
            0.0
        } else {
            // A settled active group keeps a member: none left is a conflict.
            let cheapest = self.advance_cursor(g, false).expect("a member is left");
            self.problem.objective()[cheapest]
        };
        let old = self.groups[g].charge;
        if old != new {
            self.trail.push(Undo::Charge(g, old));
            self.groups[g].charge = new;
            self.scalars.group_sum -= old;
            self.scalars.group_sum += new;
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail is longer than the mark") {
                Undo::Lo(v, old) => self.move_bound(v, old, true, false),
                Undo::Hi(v, old) => self.move_bound(v, old, false, false),
                Undo::Charge(g, old) => self.groups[g].charge = old,
                Undo::Cheap(g, old) => self.groups[g].cheap = old,
                Undo::Dear(g, old) => self.groups[g].dear_at = old,
            }
        }
    }

    fn out_of_budget(&mut self) -> bool {
        self.limit = if self.nodes >= self.cfg.node_limit {
            Some(Limit::Nodes)
        } else if self.start.elapsed() >= self.cfg.time_limit {
            Some(Limit::Time)
        } else {
            None
        };
        self.limit.is_some()
    }

    /// Runs the group queue and the queue of generic rows whose activity
    /// changed until nothing can tighten a bound. Returns false on a
    /// conflict (both queues are then emptied).
    fn propagate(&mut self) -> bool {
        loop {
            let feasible = if let Some(g) = self.group_queue.pop() {
                self.groups[g].queued = false;
                self.settle_group(g)
            } else if let Some(k) = self.queue.pop_front() {
                self.rows[k].queued = false;
                self.tighten_row(k)
            } else {
                return true;
            };
            if !feasible {
                for g in self.group_queue.drain(..) {
                    self.groups[g].queued = false;
                }
                for k in self.queue.drain(..) {
                    self.rows[k].queued = false;
                }
                return false;
            }
        }
    }

    /// Tightens every variable of generic row `k` against the residual
    /// activity of the others. Returns false when the row cannot be
    /// satisfied.
    fn tighten_row(&mut self, k: usize) -> bool {
        let tol = self.tol;
        let problem = self.problem;
        let c = &problem.constraints()[self.rows[k].index];
        // Minimum and maximum possible activity under current bounds.
        let mut min_act = 0.0;
        let mut max_act = 0.0;
        for &(v, coef) in &c.terms {
            if coef >= 0.0 {
                min_act += coef * self.lo[v.0];
                max_act += coef * self.hi[v.0];
            } else {
                min_act += coef * self.hi[v.0];
                max_act += coef * self.lo[v.0];
            }
        }
        let need_le = self.rows[k].le();
        let need_ge = self.rows[k].ge();
        if need_le && min_act > c.rhs + tol {
            return false;
        }
        if need_ge && max_act < c.rhs - tol {
            return false;
        }
        for &(v, coef) in &c.terms {
            let v = v.0;
            let (own_min, own_max) = if coef >= 0.0 {
                (coef * self.lo[v], coef * self.hi[v])
            } else {
                (coef * self.hi[v], coef * self.lo[v])
            };
            if need_le {
                // coef * x <= rhs - (min_act - own_min)
                let slack = c.rhs - (min_act - own_min);
                self.tighten(v, slack / coef, coef > 0.0);
            }
            if need_ge {
                // coef * x >= rhs - (max_act - own_max)
                let slack = c.rhs - (max_act - own_max);
                self.tighten(v, slack / coef, coef < 0.0);
            }
            if self.lo[v] > self.hi[v] + tol {
                return false;
            }
        }
        true
    }

    /// Lowers `hi[v]` (`upper`) or raises `lo[v]` to `limit` when that
    /// tightens it by more than the tolerance.
    fn tighten(&mut self, v: usize, limit: f64, upper: bool) {
        if upper {
            if limit < self.hi[v] - self.tol {
                let value = self.round_bound(v, limit, false);
                self.set_hi(v, value);
            }
        } else if limit > self.lo[v] + self.tol {
            let value = self.round_bound(v, limit, true);
            self.set_lo(v, value);
        }
    }

    fn round_bound(&self, v: usize, value: f64, is_lower: bool) -> f64 {
        let kind = self.problem.kinds()[v];
        let value = value.clamp(kind.lo(), kind.hi());
        if kind.is_integral() {
            if is_lower {
                (value - self.tol).ceil()
            } else {
                (value + self.tol).floor()
            }
        } else {
            value
        }
    }

    /// The objective-cheapest completion of the current bounds: every
    /// unfixed variable sits at whichever bound minimizes its objective
    /// term. Its objective equals the node's lower bound, so if it is
    /// feasible it is optimal for the whole subtree.
    fn cheap_completion(&self) -> Vec<f64> {
        (0..self.lo.len())
            .map(|i| self.completion_value(i))
            .collect()
    }

    /// The unfixed integral variable with the largest-magnitude objective
    /// coefficient among `vars`, ties to the lowest index.
    fn costliest_unfixed(&self, vars: impl Iterator<Item = usize>) -> Option<usize> {
        let obj = self.problem.objective();
        vars.filter(|&i| self.integral[i] && self.hi[i] - self.lo[i] > self.tol)
            .max_by(|&a, &b| {
                obj[a].abs().total_cmp(&obj[b].abs()).then(b.cmp(&a)) // prefer the lower index on ties
            })
    }

    /// Picks a branching variable: among the unfixed integral variables of
    /// the first constraint violated by the cheap completion, the one with
    /// the largest-magnitude objective coefficient (deciding expensive
    /// variables first moves the lower bound fastest), falling back to the
    /// costliest unfixed integral variable overall. Ties break on the lowest
    /// index, so the choice is deterministic. A violated grouped row's
    /// trigger is set and none of its members is, so its choice is the
    /// group's first available member in costliest-first order.
    fn pick_branch_var(&mut self) -> Option<usize> {
        let mut next = self.violated.next(0);
        while let Some(r) = next {
            let choice = match self.row_group[r] {
                Some(g) => self.advance_cursor(g, true),
                None => {
                    let terms = &self.problem.constraints()[r].terms;
                    self.costliest_unfixed(terms.iter().map(|(v, _)| v.0))
                }
            };
            if choice.is_some() {
                return choice;
            }
            next = self.violated.next(r + 1);
        }
        self.costliest_unfixed(0..self.problem.num_vars())
    }

    /// Offers an improving feasible assignment to the incumbent check and
    /// records it if accepted.
    fn offer(&mut self, values: Vec<f64>, objective: f64) {
        if (self.accept)(&values) {
            self.best_objective = objective;
            self.best_values = Some(values);
        } else {
            self.rejected += 1;
        }
    }

    /// Checks every incrementally kept quantity against a recomputation
    /// from the current bounds, and that no cover-group rule has anything
    /// left to do.
    #[cfg(test)]
    fn assert_derived_fresh(&self) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        let mut violated = vec![false; self.row_group.len()];
        let mut hard = 0;
        for (k, row) in self.rows.iter().enumerate() {
            let (min_act, max_act, lhs) = self.fresh_activities(k);
            for (kept, fresh) in [(row.min_act, min_act), (row.max_act, max_act)] {
                assert_eq!(kept.infinite, fresh.infinite, "row {} activity", row.index);
                assert!(
                    close(kept.finite, fresh.finite),
                    "row {} activity",
                    row.index
                );
            }
            assert!(close(row.lhs, lhs), "row {} completion activity", row.index);
            violated[row.index] = violates(row.cmp, row.lhs, row.rhs, self.tol);
            hard += usize::from(violates(row.cmp, row.lhs, row.rhs, self.tol * 10.0));
        }
        let obj_term: f64 = (0..self.lo.len())
            .map(|i| self.problem.objective()[i] * self.completion_value(i))
            .sum();
        assert!(close(self.scalars.obj_term, obj_term));
        let mut group_sum = 0.0;
        for (g, group) in self.groups.iter().enumerate() {
            let count =
                |test: &dyn Fn(usize) -> bool| group.members.iter().filter(|&&v| test(v)).count();
            assert_eq!(
                group.selected,
                count(&|v| self.is_set(v)),
                "group {g} selected"
            );
            assert_eq!(
                group.available,
                count(&|v| self.can_set(v)),
                "group {g} available"
            );
            let mut kept = group.active_rows.clone();
            let mut fresh = self.fresh_active_rows(g);
            assert_eq!(
                kept[..group.always],
                fresh[..group.always],
                "group {g} always rows"
            );
            kept.sort_unstable();
            fresh.sort_unstable();
            assert_eq!(kept, fresh, "group {g} rows in force");
            for (order, at) in [(&group.members, group.cheap), (&group.dear, group.dear_at)] {
                assert!(
                    order[..at].iter().all(|&v| !self.can_set(v)),
                    "group {g} cursor"
                );
            }
            if group.selected == 0 {
                for &r in &fresh {
                    violated[r] = true;
                }
                hard += fresh.len();
            }
            let charge = self.group_charge(g);
            assert_eq!(group.charge, charge, "group {g} charge");
            group_sum += charge;
            // The rules are at their fixpoint.
            let active = !fresh.is_empty();
            assert!(group.available > 0 || !active, "group {g} conflict");
            assert!(
                group.available > 0 || group.triggers.iter().all(|&(t, _)| !self.can_set(t)),
                "group {g} settable trigger with no member left"
            );
            assert!(
                !active || group.selected > 0 || group.available > 1,
                "group {g} unforced last member"
            );
            assert!(
                !group.exactly_one || group.selected != 1 || group.available == 1,
                "group {g} second member allowed"
            );
        }
        for (r, &expected) in violated.iter().enumerate() {
            assert_eq!(
                self.violated.next(r) == Some(r),
                expected,
                "row {r} violation"
            );
        }
        assert_eq!(self.hard_violated, hard);
        assert!(close(self.scalars.group_sum, group_sum));
    }

    /// Depth-first branch-and-bound over an explicit worklist of open
    /// nodes, returning the proven lower bound (see [`Solution::bound`]).
    /// The search tree's depth scales with the number of integral variables
    /// (thousands for extraction problems over large e-graphs), so
    /// descending by recursion would overflow thread stacks. Each open node
    /// holds only its parent's trail mark and its own decision: popping it
    /// undoes the trail back to the parent's bounds and applies the
    /// decision, so children pop in the original recursive order.
    fn branch(&mut self) -> f64 {
        let mut stack = vec![Frame {
            mark: 0,
            scalars: self.scalars,
            decision: None,
        }];
        while let Some(frame) = stack.pop() {
            self.undo_to(frame.mark);
            self.scalars = frame.scalars;
            if !self.expand(frame.decision, &mut stack) {
                // A limit stopped the search with this node and every
                // stacked one unexplored; each lies within its parent's
                // bounds, so the parent's lower bound holds for it.
                return (stack.iter().chain([&frame]))
                    .map(|open| open.scalars.lower_bound())
                    .fold(self.best_objective, f64::min);
            }
        }
        self.best_objective
    }

    /// Processes one branch-and-bound node, pushing its children onto the
    /// worklist (in reverse, so they pop in the original recursive order).
    /// Returns false, leaving the node unexplored, when a limit is hit.
    fn expand(&mut self, decision: Option<(usize, f64, f64)>, stack: &mut Vec<Frame>) -> bool {
        self.nodes += 1;
        if self.out_of_budget() {
            return false;
        }
        if let Some((i, lo, hi)) = decision {
            if lo != self.lo[i] {
                self.set_lo(i, lo);
            }
            if hi != self.hi[i] {
                self.set_hi(i, hi);
            }
        }
        if !self.propagate() {
            return true;
        }
        #[cfg(test)]
        self.assert_derived_fresh();
        let tol = self.tol;
        if self.scalars.lower_bound() >= self.best_objective - tol {
            return true;
        }

        // If the cheapest completion of the remaining freedom is feasible,
        // it is optimal for this subtree: record it and stop descending. If
        // the check rejects it, it rejects the whole subtree too.
        if self.hard_violated == 0 {
            let completion = self.cheap_completion();
            let obj = self.problem.objective_value(&completion);
            if obj < self.best_objective - tol {
                self.offer(completion, obj);
            }
            return true;
        }

        // Pick a branching variable guided by the violated constraints.
        let Some(i) = self.pick_branch_var() else {
            // All integral variables fixed: complete the continuous
            // variables at their propagated lower bounds and check.
            let mut values = self.lo.clone();
            for (i, value) in values.iter_mut().enumerate() {
                if self.integral[i] {
                    *value = value.round();
                }
            }
            if self.problem.is_feasible(&values, tol * 10.0) {
                let obj = self.problem.objective_value(&values);
                if obj < self.best_objective - tol {
                    self.offer(values, obj);
                }
            }
            return true;
        };
        let child = |decision| Frame {
            mark: self.trail.len(),
            scalars: self.scalars,
            decision: Some(decision),
        };
        // Enumerate candidate values for the branching variable, trying the
        // hinted value first, then the objective-cheaper bound.
        let lo_i = self.lo[i];
        let hi_i = self.hi[i];
        // For wide integer domains split at the midpoint rather than
        // enumerating every value: [lo, mid] is explored first, then
        // [mid+1, hi].
        if hi_i - lo_i > 1.5 {
            let mid = ((lo_i + hi_i) / 2.0).floor();
            stack.push(child((i, mid + 1.0, hi_i)));
            stack.push(child((i, lo_i, mid)));
            return true;
        }
        let mut candidates: Vec<f64> = vec![];
        if let Some(&hv) = self.hint.and_then(|h| h.get(i)) {
            let hv = hv.round();
            if hv >= lo_i - tol && hv <= hi_i + tol {
                candidates.push(hv);
            }
        }
        let cheap_first = if self.problem.objective()[i] >= 0.0 {
            [lo_i, hi_i]
        } else {
            [hi_i, lo_i]
        };
        for v in cheap_first {
            let v = v.round();
            if !candidates.iter().any(|&c| (c - v).abs() < 0.5) {
                candidates.push(v);
            }
        }
        for v in candidates.into_iter().rev() {
            if v < lo_i - tol || v > hi_i + tol {
                continue;
            }
            stack.push(child((i, v, v)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem};

    #[test]
    fn picks_cheapest_cover() {
        // minimize x + 2y s.t. x + y >= 1
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(x), 1.0);
        assert_eq!(sol.value(y), 0.0);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exactly_one_constraint() {
        // minimize 3a + 2b + 5c s.t. a + b + c == 1
        let mut p = Problem::new();
        let a = p.add_binary(3.0);
        let b = p.add_binary(2.0);
        let c = p.add_binary(5.0);
        p.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Eq, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(b), 1.0);
        assert_eq!(sol.value(a) + sol.value(c), 0.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
        assert!(!sol.has_solution());
    }

    #[test]
    fn knapsack_style_problem() {
        // maximize value = minimize -value, subject to weight <= 10.
        // items: (value, weight): (6,5), (5,4), (5,4), (1,1)
        let values = [6.0, 5.0, 5.0, 1.0];
        let weights = [5.0, 4.0, 4.0, 1.0];
        let mut p = Problem::new();
        let vars: Vec<_> = values.iter().map(|&v| p.add_binary(-v)).collect();
        p.add_constraint(
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            Cmp::Le,
            10.0,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        // Best is items 1, 2 and 4: value 12 at weight 10.
        assert!((sol.objective + 12.0).abs() < 1e-6);
        assert_eq!(sol.value(vars[0]), 1.0);
        assert_eq!(sol.value(vars[3]), 1.0);
    }

    #[test]
    fn implication_constraints_extraction_shape() {
        // A tiny extraction-like problem:
        //   pick exactly one of {r1, r2} (root class),
        //   r1 requires a, r2 requires b and c,
        //   costs: r1=10, r2=1, a=1, b=2, c=3.
        // Best: r2 + b + c = 6 < r1 + a = 11.
        let mut p = Problem::new();
        let r1 = p.add_binary(10.0);
        let r2 = p.add_binary(1.0);
        let a = p.add_binary(1.0);
        let b = p.add_binary(2.0);
        let c = p.add_binary(3.0);
        p.add_constraint(vec![(r1, 1.0), (r2, 1.0)], Cmp::Eq, 1.0);
        // r1 <= a, r2 <= b, r2 <= c
        p.add_constraint(vec![(r1, 1.0), (a, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (b, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (c, -1.0)], Cmp::Le, 0.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(r2), 1.0);
        assert_eq!(sol.value(b), 1.0);
        assert_eq!(sol.value(c), 1.0);
        assert_eq!(sol.value(r1), 0.0);
        assert!((sol.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn continuous_difference_constraints() {
        // Topological-order style constraints: x binary selects an edge that
        // forces t1 >= t0 + 0.1; both t in [0,1]. With x forced to 1 the
        // problem stays feasible; with an additional reversed edge it becomes
        // infeasible (a cycle).
        let mut p = Problem::new();
        let x = p.add_binary(0.0);
        let t0 = p.add_continuous(0.0, 1.0, 0.0);
        let t1 = p.add_continuous(0.0, 1.0, 0.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0); // force x = 1
        let big_a = 2.0;
        // t1 - t0 - 0.1 + A(1-x) >= 0  ->  t1 - t0 + A*(-x) >= 0.1 - A
        p.add_constraint(
            vec![(t1, 1.0), (t0, -1.0), (x, -big_a)],
            Cmp::Ge,
            0.1 - big_a,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert!(sol.value(t1) >= sol.value(t0) + 0.1 - 1e-6);

        // Now add the reverse ordering too: t0 >= t1 + 0.1 -> infeasible.
        p.add_constraint(
            vec![(t0, 1.0), (t1, -1.0), (x, -big_a)],
            Cmp::Ge,
            0.1 - big_a,
        );
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn warm_start_is_used_and_improved() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        // Hint the expensive solution; the solver must still find the optimum.
        let sol = Solver::default().solve_with_hint(&p, &[0.0, 1.0]);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_incumbent() {
        // With a node limit of 1 and a feasible hint, we keep the hint.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let solver = Solver {
            node_limit: 1,
            ..Default::default()
        };
        let sol = solver.solve_with_hint(&p, &[1.0, 1.0]);
        assert_eq!(sol.status, Status::Feasible);
        assert_eq!(sol.limit, Some(Limit::Nodes));
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn time_limit_is_reported() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let sol = Solver::with_time_limit(Duration::ZERO).solve(&p);
        assert_eq!(sol.status, Status::Unknown);
        assert_eq!(sol.limit, Some(Limit::Time));
        assert_eq!(Solver::default().solve(&p).limit, None);
    }

    #[test]
    fn rejected_assignments_are_never_returned() {
        // minimize x + 2y + 4z s.t. x + y + z >= 1; the check rejects any
        // assignment with x = 1 (and so every assignment above one).
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(2.0);
        let z = p.add_binary(4.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 1.0);
        let mut accept = |v: &[f64]| v[x.0] < 0.5;
        let sol = Solver::default().solve_checked(&p, Some(&[1.0, 0.0, 0.0]), &mut accept);
        assert_eq!(
            sol.status,
            Status::Feasible,
            "a rejection rules out Optimal"
        );
        assert!(sol.rejected >= 2, "the hint and the x completion");
        assert_eq!(sol.value(y), 1.0);
        assert!((sol.objective - 2.0).abs() < 1e-6);
        // Rejecting everything leaves no solution, which is not a proof of
        // infeasibility.
        let sol = Solver::default().solve_checked(&p, None, &mut |_| false);
        assert_eq!(sol.status, Status::Unknown);
        assert!(!sol.has_solution());
    }

    #[test]
    fn incremental_state_matches_a_fresh_rebuild_at_every_node() {
        // Layered selection problems large enough for deep trees, plus a
        // row that partially overlaps two groups, a wide integer and a
        // continuous variable; `expand` checks the kept activities,
        // completion, violated set, bound, group counts, rows in force,
        // cursors and charges against a recomputation at every node under
        // `cfg(test)`.
        let mut nodes = 0;
        for mut seed in 0..12u64 {
            let mut rand = |n: u64| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) % n
            };
            let mut p = Problem::new();
            let layers: Vec<Vec<VarId>> = (0..6)
                .map(|_| {
                    (0..4)
                        .map(|_| p.add_binary(rand(100) as f64 / 10.0))
                        .collect()
                })
                .collect();
            p.add_constraint(layers[0].iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
            for l in 0..layers.len() - 1 {
                for &v in &layers[l] {
                    for next in &layers[l + 1..] {
                        if rand(2) == 0 {
                            let mut terms = vec![(v, 1.0)];
                            terms.extend(next.iter().map(|&u| (u, -1.0)));
                            p.add_constraint(terms, Cmp::Le, 0.0);
                        }
                    }
                }
            }
            p.add_constraint(vec![(layers[2][0], 1.0), (layers[3][1], 1.0)], Cmp::Ge, 1.0);
            let k = p.add_integer(0, 9, 0.5);
            let t = p.add_continuous(0.0, 4.0, 0.0);
            p.add_constraint(vec![(k, 1.0), (layers[5][0], -3.0)], Cmp::Ge, 1.0);
            p.add_constraint(vec![(t, 1.0), (k, -0.5)], Cmp::Ge, 0.0);
            let plain = Solver::default().solve(&p);
            assert_eq!(plain.status, Status::Optimal);
            nodes += plain.nodes_explored;
            let hint: Vec<f64> = (0..p.num_vars()).map(|_| rand(2) as f64).collect();
            let hinted = Solver::default().solve_with_hint(&p, &hint);
            assert!((plain.objective - hinted.objective).abs() < 1e-9);
        }
        assert!(nodes > 100, "{nodes} nodes");
    }

    #[test]
    fn grouped_and_generic_rows_share_one_search() {
        // Root class {r1, r2} (an `==` group), classes A = {a1, a2} and
        // B = {b1, b2} behind implications, a `>= 1` row over {a2, b2} that
        // partially overlaps both groups, a wide integer k and a continuous
        // t. Selecting a1 needs k >= 5 while t <= 2 allows k <= 4, so a1 is
        // out; b1 needs k >= 2. Best: r2 + a2 + b1 with k = 2, cost 6.
        let mut p = Problem::new();
        let r1 = p.add_binary(4.0);
        let r2 = p.add_binary(1.0);
        let a1 = p.add_binary(2.0);
        let a2 = p.add_binary(3.0);
        let b1 = p.add_binary(1.0);
        let b2 = p.add_binary(5.0);
        let k = p.add_integer(0, 9, 0.5);
        let t = p.add_continuous(0.0, 2.0, 0.0);
        p.add_constraint(vec![(r1, 1.0), (r2, 1.0)], Cmp::Eq, 1.0);
        p.add_constraint(vec![(r1, 1.0), (a1, -1.0), (a2, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (a1, -1.0), (a2, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(r2, 1.0), (b1, -1.0), (b2, -1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(a2, 1.0), (b2, 1.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(k, 1.0), (a1, -5.0)], Cmp::Ge, 0.0);
        p.add_constraint(vec![(t, 1.0), (k, -0.5)], Cmp::Ge, 0.0);
        p.add_constraint(vec![(k, 1.0), (b1, -2.0)], Cmp::Ge, 0.0);

        let solver = Solver::default();
        let mut accept = |_: &[f64]| true;
        let search = Search::new(&p, &solver, None, &mut accept, Instant::now());
        let generic: Vec<usize> = search.rows.iter().map(|row| row.index).collect();
        assert_eq!(generic, [4, 5, 6, 7], "the overlap row stays generic");
        assert_eq!(search.groups.len(), 3);
        assert!(search.groups[0].exactly_one);
        assert_eq!(search.groups[1].triggers, [(r1.0, 1), (r2.0, 2)]);

        // `expand` checks the group counts, rows in force, violated set and
        // cursors against a recomputation at every node.
        for hint in [None, Some(vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 5.0, 2.0])] {
            let sol = solver.solve_checked(&p, hint.as_deref(), &mut |_| true);
            assert_eq!(sol.status, Status::Optimal);
            assert!((sol.objective - 6.0).abs() < 1e-9, "{}", sol.objective);
            assert_eq!(sol.bound, sol.objective);
            assert_eq!(sol.presolve_fixed, 1, "t and k rule out a1 at the root");
            assert!(sol.nodes_explored > 1, "the search branches");
            for (var, value) in [(r2, 1.0), (a2, 1.0), (b1, 1.0), (k, 2.0)] {
                assert_eq!(sol.value(var), value);
            }
            assert!(sol.value(t) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn presolve_fixes_implied_variables() {
        // x >= 1 and y <= 0 are implied outright: presolve must fix both
        // before any branching happens.
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        let z = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(y, 1.0)], Cmp::Le, 0.0);
        p.add_constraint(vec![(x, 1.0), (z, 1.0)], Cmp::Ge, 1.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!(sol.presolve_fixed >= 2, "x and y are implied");
    }

    #[test]
    fn presolve_proves_infeasibility_without_branching() {
        let mut p = Problem::new();
        let x = p.add_binary(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.0);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Infeasible);
        assert_eq!(sol.nodes_explored, 0);
    }

    #[test]
    fn cover_bound_certifies_optimal_hint_quickly() {
        // Three disjoint "pick one of the class" groups: the per-group
        // cheapest-member bound equals the optimum, so a hinted optimal
        // incumbent must be certified in a handful of nodes, not by
        // enumerating the 2^6 lattice.
        let mut p = Problem::new();
        let mut hint = vec![0.0; 6];
        for g in 0..3 {
            let a = p.add_binary(1.0 + g as f64);
            let b = p.add_binary(2.0 + g as f64);
            p.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
            hint[a.0] = 1.0;
        }
        let sol = Solver::default().solve_with_hint(&p, &hint);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!(
            sol.nodes_explored <= 2,
            "cover bound should prune at the root, explored {}",
            sol.nodes_explored
        );
    }

    #[test]
    fn integer_variables_with_wide_domains() {
        // minimize z s.t. z >= 7.3 with z integer in [0, 100] -> z = 8.
        let mut p = Problem::new();
        let z = p.add_integer(0, 100, 1.0);
        p.add_constraint(vec![(z, 1.0)], Cmp::Ge, 7.3);
        let sol = Solver::default().solve(&p);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.value(z), 8.0);
    }
}
