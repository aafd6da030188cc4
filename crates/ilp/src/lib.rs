//! # tensat-ilp
//!
//! A small, dependency-free mixed 0/1 linear-programming solver used by
//! TENSAT's ILP extraction phase (the original system uses SCIP via Google
//! OR-tools; this crate plays that role).
//!
//! The solver is an exact branch-and-bound over the integral variables with
//! activity-based constraint propagation, warm starting, and wall-clock /
//! node limits so it can be used as an any-time procedure — extraction
//! keeps the best incumbent if the limit fires, just as the paper's setup
//! keeps running under a one-hour SCIP timeout. [`Solution::limit`] says
//! which limit stopped a search.
//!
//! The search is incremental: one bound array with an undo trail, covering
//! rows folded into cover groups that propagate on member counts, the
//! remaining rows' activities kept current as bounds move, and propagation
//! driven by queues of the groups and rows that changed, so a node costs
//! time in proportion to the groups and rows it touches. When a limit
//! stops a search, [`Solution::bound`] reports a proven lower bound.
//! [`Solver::solve_checked`] adds an incumbent check that vets assignments
//! before they are recorded (extraction uses it to accept only well-typed
//! graphs).
//!
//! ```
//! use tensat_ilp::{Problem, Cmp, Solver, Status};
//! // minimize 3a + 2b  subject to  a + b >= 1
//! let mut p = Problem::new();
//! let a = p.add_binary(3.0);
//! let b = p.add_binary(2.0);
//! p.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
//! let sol = Solver::default().solve(&p);
//! assert_eq!(sol.status, Status::Optimal);
//! assert_eq!(sol.value(b), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod solver;

pub use problem::{Cmp, Constraint, Problem, VarId, VarKind};
pub use solver::{Limit, Solution, Solver, Status};
