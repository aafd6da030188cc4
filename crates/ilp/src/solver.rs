//! A deterministic branch-and-bound solver for mixed 0/1 linear programs.
//!
//! The solver is exact given enough time: it enumerates the integral
//! variables depth-first with constraint propagation (activity-based bound
//! tightening) at every node and prunes with a partial-assignment lower
//! bound and the best incumbent found so far. Before branching, a *presolve*
//! propagation fixpoint on the root bounds fixes every variable implied by
//! the constraints alone ([`Solution::presolve_fixed`] counts them), and
//! variable-disjoint `sum >= 1` covering constraints are collected into
//! groups that strengthen the lower bound by each group's cheapest available
//! member — on extraction encodings this usually certifies a greedy-seeded
//! incumbent optimal within a handful of nodes. A warm-start hint can seed
//! the incumbent (TENSAT seeds it with the greedy extraction), and wall
//! clock / node limits turn the solver into an any-time procedure — the
//! role SCIP plays in the original system.
//!
//! Each node costs time in proportion to the rows it touches, not to the
//! size of the problem. The search keeps one `lo`/`hi` bound array and an
//! undo trail with a mark per decision, so moving between nodes replays only
//! the bound changes in between. Every row carries its minimum and maximum
//! activity, kept current as bounds move; a row is queued for propagation
//! only when the side of its activity that can tighten a bound changed and
//! its slack is within the widest term range of the row. Propagation runs
//! the queue to a fixpoint — the same fixpoint a sweep over every row
//! reaches, because bound tightening is monotone. The objective lower bound
//! (bounds-only term plus cover-group charges), the cheap completion's row
//! activities, and the ordered set of rows it violates are likewise kept
//! current, so the first violated row, the branching choice, is a lookup.
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
        search.queue_all_rows();
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
        search.branch();

        let status = match (&search.best_values, search.limit, search.rejected) {
            (Some(_), None, 0) => Status::Optimal,
            (Some(_), ..) => Status::Feasible,
            (None, None, 0) => Status::Infeasible,
            (None, ..) => Status::Unknown,
        };
        Solution {
            status,
            objective: search.best_objective,
            values: search.best_values.unwrap_or_default(),
            nodes_explored: search.nodes,
            presolve_fixed,
            limit: search.limit,
            rejected: search.rejected,
            solve_time: start.elapsed(),
        }
    }
}

/// One covering group for the conditional-cover lower bound, with the
/// search state that keeps its charge current.
struct CoverGroup {
    /// The covered variables (pairwise disjoint across groups), sorted by
    /// cost once the search starts.
    members: Vec<usize>,
    /// Active regardless of triggers (backed by a `>= 1` row).
    always: bool,
    /// Binary variables whose fixing to 1 activates the group (each backed
    /// by a row `trigger - sum(members) <= 0`).
    triggers: Vec<usize>,
    /// Triggers whose lower bound is 1.
    active: usize,
    /// Members whose lower bound is 1 (the group is satisfied).
    selected: usize,
    /// A position in `members` with no available member before it. Bounds
    /// only tighten down a branch, so the cursor only advances; the trail
    /// moves it back.
    cursor: usize,
    /// What the group adds to the lower bound.
    charge: f64,
    /// Queued for a recharge.
    dirty: bool,
}

/// Collects pairwise member-disjoint covering groups from two row shapes:
/// `sum(x_v) >= 1` / `== 1` (always-active) and `x_t - sum(x_v) <= 0`
/// (active when the trigger `x_t` is 1), both over unit coefficients and
/// binary members with nonnegative objective coefficients. Rows with the
/// same member set merge (an always row marks the group `always`; each
/// implication row adds its trigger). Scanned in constraint order, greedily
/// skipping any row whose member set partially overlaps an earlier group,
/// so the collection is deterministic.
fn cover_groups(problem: &Problem, tol: f64) -> Vec<CoverGroup> {
    let mut group_of = vec![usize::MAX; problem.num_vars()];
    let mut groups: Vec<CoverGroup> = vec![];
    let member_ok =
        |v: VarId| problem.kinds()[v.0] == VarKind::Binary && problem.objective()[v.0] >= 0.0;
    // Resolves the member set to a group slot: an existing group with
    // exactly this set, a fresh one when no member is taken, or None on a
    // partial overlap.
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
            always: false,
            triggers: vec![],
            active: 0,
            selected: 0,
            cursor: 0,
            charge: 0.0,
            dirty: false,
        });
        Some(groups.len() - 1)
    };
    for c in problem.constraints() {
        if matches!(c.cmp, Cmp::Ge | Cmp::Eq)
            && (c.rhs - 1.0).abs() <= tol
            && !c.terms.is_empty()
            && c.terms
                .iter()
                .all(|&(v, coef)| (coef - 1.0).abs() <= tol && member_ok(v))
        {
            let mut members: Vec<usize> = c.terms.iter().map(|&(v, _)| v.0).collect();
            members.sort_unstable();
            if let Some(g) = slot_for(&members, &mut groups) {
                groups[g].always = true;
            }
        } else if c.cmp == Cmp::Le && c.rhs.abs() <= tol {
            let mut trigger = None;
            let mut members = vec![];
            let mut usable = true;
            for &(v, coef) in &c.terms {
                if (coef - 1.0).abs() <= tol {
                    usable &= trigger.is_none() && problem.kinds()[v.0] == VarKind::Binary;
                    trigger = Some(v.0);
                } else if (coef + 1.0).abs() <= tol {
                    usable &= member_ok(v);
                    members.push(v.0);
                } else {
                    usable = false;
                }
            }
            let Some(trigger) = trigger else { continue };
            if !usable || members.is_empty() {
                continue;
            }
            members.sort_unstable();
            if let Some(g) = slot_for(&members, &mut groups) {
                groups[g].triggers.push(trigger);
            }
        }
    }
    groups
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

/// The state of one row, kept in one place so a bound change touches one
/// cache line per row it appears in.
struct Row {
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
    Cursor(usize, usize),
}

/// The scalar search state, saved whole with every open node.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    /// The bounds-only objective term: each variable at its
    /// objective-cheapest bound (the cheap completion's objective).
    obj_term: f64,
    /// Sum of the finite cover-group charges.
    group_sum: f64,
    /// Active groups with no member left (each makes the bound infinite).
    dead_groups: usize,
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
    rows: Vec<Row>,
    /// The `(row, coef)` occurrences of variable `v` are
    /// `occ[occ_start[v]..occ_start[v + 1]]`.
    occ_start: Vec<usize>,
    occ: Vec<(usize, f64)>,
    /// Pairwise member-disjoint covering groups of binary variables with
    /// nonnegative objective coefficients. A group is *always* active when
    /// a `sum == 1` / `sum >= 1` unit-coefficient row covers it, and
    /// *conditionally* active when an implication row `x_t - sum <= 0`
    /// covers it and the trigger `x_t` is fixed to 1. Every active
    /// unsatisfied group independently forces at least its cheapest
    /// available member into any completion — a valid additive
    /// strengthening of the bounds-only objective lower bound, because the
    /// member sets share no variables. Extraction encodings are made of
    /// exactly such rows (one group per e-class, triggered by the parent
    /// candidates that need the class), which is what lets the solver prove
    /// a greedy-seeded incumbent optimal without enumerating the selection
    /// lattice: committing to a candidate immediately charges every class
    /// it pulls in at that class's cheapest rate.
    groups: Vec<CoverGroup>,
    member_of: Vec<Option<usize>>,
    triggers_of: Vec<Vec<usize>>,

    lo: Vec<f64>,
    hi: Vec<f64>,
    trail: Vec<Undo>,
    queue: VecDeque<usize>,
    /// Rows the cheap completion violates by more than the tolerance.
    violated: RowSet,
    /// Rows it violates by more than ten times the tolerance (the
    /// feasibility test's slack): the completion is feasible iff zero.
    hard_violated: usize,
    /// Groups whose members or triggers moved since the last recharge.
    dirty: Vec<usize>,
    scalars: Scalars,
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
        let m = problem.num_constraints();
        let kinds = problem.kinds();
        let mut occ_start = vec![0; n + 1];
        for c in problem.constraints() {
            for &(v, _) in &c.terms {
                occ_start[v.0 + 1] += 1;
            }
        }
        for v in 0..n {
            occ_start[v + 1] += occ_start[v];
        }
        let mut fill = occ_start.clone();
        let mut occ = vec![(0, 0.0); occ_start[n]];
        let mut rows = Vec::with_capacity(m);
        for (r, c) in problem.constraints().iter().enumerate() {
            for &(v, coef) in &c.terms {
                occ[fill[v.0]] = (r, coef);
                fill[v.0] += 1;
            }
            rows.push(Row {
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
        let mut groups = cover_groups(problem, cfg.tolerance);
        let obj = problem.objective();
        for group in &mut groups {
            group
                .members
                .sort_by(|&a, &b| obj[a].total_cmp(&obj[b]).then(a.cmp(&b)));
        }
        let mut member_of = vec![None; n];
        let mut triggers_of = vec![vec![]; n];
        for (g, group) in groups.iter().enumerate() {
            for &v in &group.members {
                member_of[v] = Some(g);
            }
            for &t in &group.triggers {
                triggers_of[t].push(g);
            }
        }
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
            occ_start,
            occ,
            groups,
            member_of,
            triggers_of,
            lo: kinds.iter().map(VarKind::lo).collect(),
            hi: kinds.iter().map(VarKind::hi).collect(),
            trail: vec![],
            queue: VecDeque::new(),
            violated: RowSet::new(m),
            hard_violated: 0,
            dirty: vec![],
            scalars: Scalars {
                obj_term: 0.0,
                group_sum: 0.0,
                dead_groups: 0,
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

    /// The cheap completion's value for `v`: whichever bound minimizes its
    /// objective term.
    fn completion_value(&self, v: usize) -> f64 {
        if self.problem.objective()[v] >= 0.0 {
            self.lo[v]
        } else {
            self.hi[v]
        }
    }

    /// Row `r`'s minimum, maximum and cheap-completion activities, summed
    /// afresh from the current bounds.
    fn fresh_activities(&self, r: usize) -> (Activity, Activity, f64) {
        let (mut min_act, mut max_act, mut lhs) = (Activity::default(), Activity::default(), 0.0);
        for &(v, coef) in &self.problem.constraints()[r].terms {
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

    /// Recomputes every derived quantity from `lo`/`hi` from scratch, in
    /// the summation order a fresh evaluation uses.
    fn rebuild_derived(&mut self) {
        let tol = self.tol;
        self.violated = RowSet::new(self.rows.len());
        self.hard_violated = 0;
        for r in 0..self.rows.len() {
            let (min_act, max_act, lhs) = self.fresh_activities(r);
            let row = &mut self.rows[r];
            (row.min_act, row.max_act, row.lhs) = (min_act, max_act, lhs);
            if violates(row.cmp, lhs, row.rhs, tol) {
                self.violated.insert(r);
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
        for g in self.dirty.drain(..) {
            self.groups[g].dirty = false;
        }
        let (lo, hi) = (&self.lo, &self.hi);
        let count = |vars: &[usize]| vars.iter().filter(|&&v| lo[v] >= 1.0 - tol).count();
        for group in &mut self.groups {
            group.active = count(&group.triggers);
            group.selected = count(&group.members);
            group.cursor = (group.members.iter())
                .position(|&v| hi[v] >= 1.0 - tol)
                .unwrap_or(group.members.len());
        }
        for g in 0..self.groups.len() {
            self.groups[g].charge = self.group_charge(g);
        }
        let charges = || self.groups.iter().map(|group| group.charge);
        self.scalars.group_sum = charges().filter(|c| c.is_finite()).sum();
        self.scalars.dead_groups = charges().filter(|c| c.is_infinite()).count();
    }

    /// Shifts row `r`'s completion activity, keeping the violated set and
    /// the hard-violation count in step.
    fn shift_lhs(&mut self, r: usize, delta: f64) {
        let tol = self.tol;
        let row = &mut self.rows[r];
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
                self.violated.insert(r);
            } else {
                self.violated.remove(r);
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

    /// What a cover group adds to the lower bound: nothing when inactive or
    /// already satisfied at the lower bounds, else its cheapest available
    /// member (`+inf` when none is left — an infeasibility proof).
    fn group_charge(&self, g: usize) -> f64 {
        let group = &self.groups[g];
        if !group.always && group.active == 0 {
            return 0.0;
        }
        let obj = self.problem.objective();
        let mut cheapest = f64::INFINITY;
        for &i in &group.members {
            if self.lo[i] >= 1.0 - self.tol {
                // Already selected: its cost is in the bounds-only term.
                return 0.0;
            }
            if self.hi[i] >= 1.0 - self.tol {
                cheapest = cheapest.min(obj[i]);
            }
        }
        cheapest
    }

    /// Queues row `r` unless it is queued already or provably cannot
    /// tighten a bound: a side whose activity is unbounded implies nothing,
    /// and a term tightens only when the side's slack is below the term's
    /// range by more than the tolerance, so a slack of at least the row's
    /// widest range implies nothing either.
    fn queue_if_useful(&mut self, r: usize) {
        let row = &mut self.rows[r];
        let (min_act, max_act) = (row.min_act, row.max_act);
        if !row.queued
            && ((row.le() && min_act.infinite == 0 && row.rhs - min_act.finite < row.max_range)
                || (row.ge() && max_act.infinite == 0 && max_act.finite - row.rhs < row.max_range))
        {
            row.queued = true;
            self.queue.push_back(r);
        }
    }

    fn queue_all_rows(&mut self) {
        for (r, row) in self.rows.iter_mut().enumerate() {
            if !row.queued {
                row.queued = true;
                self.queue.push_back(r);
            }
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

    /// Moves `lo[v]` (`is_lower`) or `hi[v]` to `value` and keeps the row
    /// activities, the completion, and the cover-group counts in step.
    /// `forward` is false when undoing: then no row is queued, no group is
    /// marked dirty (the trail restores the charges), and the scalars are
    /// left alone (the open node restores them whole).
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
        let tol = self.tol;
        if is_lower && (old >= 1.0 - tol) != (value >= 1.0 - tol) {
            let step = |count: &mut usize| {
                if value >= 1.0 - tol {
                    *count += 1;
                } else {
                    *count -= 1;
                }
            };
            for k in 0..self.triggers_of[v].len() {
                let g = self.triggers_of[v][k];
                step(&mut self.groups[g].active);
                if forward {
                    self.mark_dirty(g);
                }
            }
            if let Some(g) = self.member_of[v] {
                step(&mut self.groups[g].selected);
            }
        }
        if forward {
            if completion_moves {
                self.scalars.obj_term += self.problem.objective()[v] * delta;
            }
            if let Some(g) = self.member_of[v] {
                self.mark_dirty(g);
            }
        }
    }

    fn mark_dirty(&mut self, g: usize) {
        if !self.groups[g].dirty {
            self.groups[g].dirty = true;
            self.dirty.push(g);
        }
    }

    /// [`Search::group_charge`] from the kept counts: an active,
    /// unsatisfied group advances its cursor past the members no longer
    /// available and charges the one it lands on.
    fn recharge(&mut self, g: usize) -> f64 {
        let group = &self.groups[g];
        if (!group.always && group.active == 0) || group.selected > 0 {
            return 0.0;
        }
        let old = group.cursor;
        let mut at = old;
        while at < group.members.len() && self.hi[group.members[at]] < 1.0 - self.tol {
            at += 1;
        }
        let charge = group
            .members
            .get(at)
            .map_or(f64::INFINITY, |&i| self.problem.objective()[i]);
        if at != old {
            self.trail.push(Undo::Cursor(g, old));
            self.groups[g].cursor = at;
        }
        charge
    }

    /// Recharges every group whose members or triggers moved.
    fn settle_groups(&mut self) {
        while let Some(g) = self.dirty.pop() {
            self.groups[g].dirty = false;
            let (old, new) = (self.groups[g].charge, self.recharge(g));
            if old == new {
                continue;
            }
            self.trail.push(Undo::Charge(g, old));
            self.groups[g].charge = new;
            let s = &mut self.scalars;
            if old.is_finite() {
                s.group_sum -= old;
            } else {
                s.dead_groups -= 1;
            }
            if new.is_finite() {
                s.group_sum += new;
            } else {
                s.dead_groups += 1;
            }
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail is longer than the mark") {
                Undo::Lo(v, old) => self.move_bound(v, old, true, false),
                Undo::Hi(v, old) => self.move_bound(v, old, false, false),
                Undo::Charge(g, old) => self.groups[g].charge = old,
                Undo::Cursor(g, old) => self.groups[g].cursor = old,
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

    /// Activity-based bound tightening, run from the queue of rows whose
    /// activity changed until no row can tighten anything. Returns false on
    /// a conflict (the queue is then emptied).
    fn propagate(&mut self) -> bool {
        while let Some(r) = self.queue.pop_front() {
            self.rows[r].queued = false;
            if !self.tighten_row(r) {
                for r in self.queue.drain(..) {
                    self.rows[r].queued = false;
                }
                return false;
            }
        }
        true
    }

    /// Tightens every variable of row `r` against the residual activity of
    /// the others. Returns false when the row cannot be satisfied.
    fn tighten_row(&mut self, r: usize) -> bool {
        let tol = self.tol;
        let problem = self.problem;
        let c = &problem.constraints()[r];
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
        let need_le = self.rows[r].le();
        let need_ge = self.rows[r].ge();
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

    /// A valid lower bound on the objective under the current bounds: the
    /// bounds-only term plus every active, unsatisfied cover group's
    /// cheapest available member. The member sets are variable-disjoint,
    /// so the charges add without double counting; an active group with no
    /// member left is an infeasibility proof (bound `+inf`).
    fn lower_bound(&self) -> f64 {
        if self.scalars.dead_groups > 0 {
            f64::INFINITY
        } else {
            self.scalars.obj_term + self.scalars.group_sum
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

    /// Picks a branching variable: among the unfixed integral variables of
    /// the first constraint violated by the cheap completion, the one with
    /// the largest-magnitude objective coefficient (deciding expensive
    /// variables first moves the lower bound fastest), falling back to the
    /// costliest unfixed integral variable overall. Ties break on the lowest
    /// index, so the choice is deterministic.
    fn pick_branch_var(&self) -> Option<usize> {
        let obj = self.problem.objective();
        let unfixed = |i: usize| self.integral[i] && self.hi[i] - self.lo[i] > self.tol;
        let costliest = |vars: &mut dyn Iterator<Item = usize>| -> Option<usize> {
            vars.filter(|&i| unfixed(i)).max_by(|&a, &b| {
                obj[a].abs().total_cmp(&obj[b].abs()).then(b.cmp(&a)) // prefer the lower index on ties
            })
        };
        let mut next = self.violated.next(0);
        while let Some(r) = next {
            let terms = &self.problem.constraints()[r].terms;
            if let Some(v) = costliest(&mut terms.iter().map(|(v, _)| v.0)) {
                return Some(v);
            }
            next = self.violated.next(r + 1);
        }
        costliest(&mut (0..self.problem.num_vars()))
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
    /// from the current bounds.
    #[cfg(test)]
    fn assert_derived_fresh(&self) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        let mut hard = 0;
        for (r, row) in self.rows.iter().enumerate() {
            let (min_act, max_act, lhs) = self.fresh_activities(r);
            for (kept, fresh) in [(row.min_act, min_act), (row.max_act, max_act)] {
                assert_eq!(kept.infinite, fresh.infinite, "row {r} activity");
                assert!(close(kept.finite, fresh.finite), "row {r} activity");
            }
            assert!(close(row.lhs, lhs), "row {r} completion activity");
            let violated = violates(row.cmp, row.lhs, row.rhs, self.tol);
            assert_eq!(
                self.violated.next(r) == Some(r),
                violated,
                "row {r} violation"
            );
            hard += usize::from(violates(row.cmp, row.lhs, row.rhs, self.tol * 10.0));
        }
        assert_eq!(self.hard_violated, hard);
        let obj_term: f64 = (0..self.lo.len())
            .map(|i| self.problem.objective()[i] * self.completion_value(i))
            .sum();
        assert!(close(self.scalars.obj_term, obj_term));
        let (mut group_sum, mut dead) = (0.0, 0);
        for (g, group) in self.groups.iter().enumerate() {
            let active = group
                .triggers
                .iter()
                .filter(|&&t| self.lo[t] >= 1.0 - self.tol);
            assert_eq!(group.active, active.count(), "group {g} triggers");
            let selected = group
                .members
                .iter()
                .filter(|&&v| self.lo[v] >= 1.0 - self.tol);
            assert_eq!(group.selected, selected.count(), "group {g} members");
            let skipped = &group.members[..group.cursor];
            assert!(
                skipped.iter().all(|&v| self.hi[v] < 1.0 - self.tol),
                "group {g} cursor"
            );
            let charge = self.group_charge(g);
            assert_eq!(group.charge, charge, "group {g} charge");
            if charge.is_finite() {
                group_sum += charge;
            } else {
                dead += 1;
            }
        }
        assert!(close(self.scalars.group_sum, group_sum));
        assert_eq!(self.scalars.dead_groups, dead);
    }

    /// Depth-first branch-and-bound over an explicit worklist of open
    /// nodes. The search tree's depth scales with the number of integral
    /// variables (thousands for extraction problems over large e-graphs),
    /// so descending by recursion would overflow thread stacks. Each open
    /// node holds only its parent's trail mark and its own decision:
    /// popping it undoes the trail back to the parent's bounds and applies
    /// the decision, so children pop in the original recursive order.
    fn branch(&mut self) {
        let mut stack = vec![Frame {
            mark: 0,
            scalars: self.scalars,
            decision: None,
        }];
        while let Some(frame) = stack.pop() {
            if self.limit.is_some() {
                break;
            }
            self.undo_to(frame.mark);
            self.scalars = frame.scalars;
            self.expand(frame.decision, &mut stack);
        }
    }

    /// Processes one branch-and-bound node, pushing its children onto the
    /// worklist (in reverse, so they pop in the original recursive order).
    fn expand(&mut self, decision: Option<(usize, f64, f64)>, stack: &mut Vec<Frame>) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
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
            for g in self.dirty.drain(..) {
                self.groups[g].dirty = false;
            }
            return;
        }
        self.settle_groups();
        #[cfg(test)]
        self.assert_derived_fresh();
        let tol = self.tol;
        if self.lower_bound() >= self.best_objective - tol {
            return;
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
            return;
        }

        // Pick a branching variable guided by the violated constraints.
        match self.pick_branch_var() {
            None => {
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
            }
            Some(i) => {
                let child = |decision| Frame {
                    mark: self.trail.len(),
                    scalars: self.scalars,
                    decision: Some(decision),
                };
                // Enumerate candidate values for the branching variable,
                // trying the hinted value first, then the objective-cheaper
                // bound.
                let lo_i = self.lo[i];
                let hi_i = self.hi[i];
                // For wide integer domains split at the midpoint rather
                // than enumerating every value: [lo, mid] is explored first,
                // then [mid+1, hi].
                if hi_i - lo_i > 1.5 {
                    let mid = ((lo_i + hi_i) / 2.0).floor();
                    stack.push(child((i, mid + 1.0, hi_i)));
                    stack.push(child((i, lo_i, mid)));
                    return;
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
            }
        }
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
        // A layered selection problem large enough for deep trees, plus a
        // wide integer and a continuous variable; `expand` checks the kept
        // activities, completion, violated set, bound and cover charges
        // against a recomputation at every node under `cfg(test)`.
        let mut seed = 7u64;
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
        let k = p.add_integer(0, 9, 0.5);
        let t = p.add_continuous(0.0, 4.0, 0.0);
        p.add_constraint(vec![(k, 1.0), (layers[5][0], -3.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(t, 1.0), (k, -0.5)], Cmp::Ge, 0.0);
        let plain = Solver::default().solve(&p);
        assert_eq!(plain.status, Status::Optimal);
        assert!(plain.nodes_explored > 10, "{} nodes", plain.nodes_explored);
        let hint: Vec<f64> = (0..p.num_vars()).map(|_| rand(2) as f64).collect();
        let hinted = Solver::default().solve_with_hint(&p, &hint);
        assert!((plain.objective - hinted.objective).abs() < 1e-9);
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
