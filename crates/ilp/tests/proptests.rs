//! Property tests comparing the branch-and-bound solver against brute-force
//! enumeration on small random 0/1 problems: dense random rows, and
//! extraction-shaped selection problems whose covering rows form the cover
//! groups behind the solver's strengthened lower bound.

use proptest::prelude::*;
use tensat_ilp::{Cmp, Problem, Solver, Status, VarId};

#[derive(Debug, Clone)]
struct RandomProblem {
    costs: Vec<f64>,
    constraints: Vec<(Vec<f64>, u8, f64)>,
}

fn problem_strategy() -> impl Strategy<Value = RandomProblem> {
    let n_vars = 2usize..6;
    n_vars.prop_flat_map(|n| {
        let costs = prop::collection::vec(0.0f64..10.0, n..=n);
        let constraint = (
            prop::collection::vec(-2.0f64..2.0, n..=n),
            0u8..3,
            -2.0f64..3.0,
        );
        let constraints = prop::collection::vec(constraint, 1..4);
        (costs, constraints).prop_map(|(costs, constraints)| RandomProblem { costs, constraints })
    })
}

fn build(p: &RandomProblem) -> Problem {
    let mut prob = Problem::new();
    let vars: Vec<_> = p.costs.iter().map(|&c| prob.add_binary(c)).collect();
    for (coefs, cmp, rhs) in &p.constraints {
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        prob.add_constraint(
            vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect(),
            cmp,
            *rhs,
        );
    }
    prob
}

/// Brute force over all 2^n assignments.
fn brute_force(prob: &Problem, n: usize) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let values: Vec<f64> = (0..n)
            .map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
            .collect();
        if prob.is_feasible(&values, 1e-9) {
            let obj = prob.objective_value(&values);
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

proptest! {
    /// The solver agrees with brute force on feasibility and optimal value.
    #[test]
    fn solver_matches_brute_force(rp in problem_strategy()) {
        let prob = build(&rp);
        let n = rp.costs.len();
        let reference = brute_force(&prob, n);
        let sol = Solver::default().solve(&prob);
        match reference {
            None => prop_assert_eq!(sol.status, Status::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status, Status::Optimal);
                prop_assert!((sol.objective - best).abs() < 1e-6,
                    "solver got {} but brute force got {}", sol.objective, best);
                // The returned assignment must itself be feasible.
                prop_assert!(prob.is_feasible(&sol.values, 1e-6));
            }
        }
    }

    /// Warm starting with any assignment never changes the optimum.
    #[test]
    fn warm_start_does_not_change_optimum(rp in problem_strategy(), seed in 0u32..16) {
        let prob = build(&rp);
        let n = rp.costs.len();
        let hint: Vec<f64> = (0..n).map(|i| ((seed >> i) & 1) as f64).collect();
        let plain = Solver::default().solve(&prob);
        let hinted = Solver::default().solve_with_hint(&prob, &hint);
        prop_assert_eq!(plain.status, hinted.status);
        if plain.status == Status::Optimal {
            prop_assert!((plain.objective - hinted.objective).abs() < 1e-6);
        }
    }
}

/// A random extraction-shaped selection problem: classes of 1–3 candidate
/// variables (class 0 is the root), implication edges from candidates to
/// later classes, and a subset of classes marked required.
#[derive(Debug, Clone)]
struct Selection {
    /// The variables of each class.
    classes: Vec<Vec<usize>>,
    costs: Vec<f64>,
    /// `(candidate, child class)`: selecting the candidate needs the class.
    edges: Vec<(usize, usize)>,
    /// Non-root classes with an explicit `>= 1` row.
    required: Vec<usize>,
    hint: Vec<f64>,
    /// The check rejects any assignment setting all of one set to 1, so a
    /// rejection survives setting more variables to 1.
    nogoods: Vec<Vec<usize>>,
}

/// Splitmix64: turns one proptest seed into the many small choices below.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn selection_strategy() -> impl Strategy<Value = Selection> {
    (prop::collection::vec(1usize..=3, 1..=5), any::<u64>()).prop_map(|(sizes, seed)| {
        let mut state = seed;
        let mut rand = |n: u64| next(&mut state) % n;
        let mut classes = vec![];
        let mut n = 0;
        for size in sizes {
            // At most 14 variables, so enumeration stays cheap.
            let size = size.min(14 - n);
            if size == 0 {
                break;
            }
            classes.push((n..n + size).collect::<Vec<_>>());
            n += size;
        }
        let costs = (0..n).map(|_| rand(1000) as f64 / 100.0).collect();
        let mut edges = vec![];
        for (c, vars) in classes.iter().enumerate() {
            for &v in vars {
                for d in c + 1..classes.len() {
                    if rand(2) == 0 {
                        edges.push((v, d));
                    }
                }
            }
        }
        let required = (1..classes.len()).filter(|_| rand(3) == 0).collect();
        let hint = (0..n).map(|_| rand(2) as f64).collect();
        let nogoods = (0..rand(3))
            .map(|_| (0..1 + rand(3)).map(|_| rand(n as u64) as usize).collect())
            .collect();
        Selection {
            classes,
            costs,
            edges,
            required,
            hint,
            nogoods,
        }
    })
}

fn build_selection(s: &Selection) -> Problem {
    let mut prob = Problem::new();
    let vars: Vec<VarId> = s.costs.iter().map(|&c| prob.add_binary(c)).collect();
    let members = |c: usize| s.classes[c].iter().map(|&v| (vars[v], 1.0));
    prob.add_constraint(members(0).collect(), Cmp::Eq, 1.0);
    for &c in &s.required {
        prob.add_constraint(members(c).collect(), Cmp::Ge, 1.0);
    }
    for &(v, c) in &s.edges {
        let mut terms = vec![(vars[v], 1.0)];
        terms.extend(members(c).map(|(m, _)| (m, -1.0)));
        prob.add_constraint(terms, Cmp::Le, 0.0);
    }
    prob
}

fn accepted(s: &Selection, values: &[f64]) -> bool {
    !s.nogoods
        .iter()
        .any(|set| set.iter().all(|&v| values[v] > 0.5))
}

proptest! {
    /// On extraction-shaped problems with an incumbent check, the solver
    /// finds the optimum over the feasible *accepted* assignments, reports
    /// `Optimal` exactly when it rejected nothing, and returns an accepted
    /// assignment. Its proven bound equals the objective when the search
    /// finishes, and under a small node limit still satisfies
    /// `bound <= optimum <= objective`.
    #[test]
    fn checked_solver_matches_brute_force_on_selection_problems(
        s in selection_strategy(),
        node_limit in 1usize..8,
    ) {
        let prob = build_selection(&s);
        let n = s.costs.len();
        let mut feasible = false;
        let mut reference: Option<f64> = None;
        for mask in 0..(1u32 << n) {
            let values: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
            if prob.is_feasible(&values, 1e-9) {
                feasible = true;
                if accepted(&s, &values) {
                    let obj = prob.objective_value(&values);
                    reference = Some(reference.map_or(obj, |b: f64| b.min(obj)));
                }
            }
        }
        let sol = Solver::default().solve_checked(&prob, Some(&s.hint), &mut |v| accepted(&s, v));
        prop_assert_eq!(sol.limit, None);
        prop_assert_eq!(sol.bound, sol.objective);
        let limited = Solver { node_limit, ..Solver::default() }
            .solve_checked(&prob, Some(&s.hint), &mut |v| accepted(&s, v));
        let optimum = reference.unwrap_or(f64::INFINITY);
        prop_assert!(limited.bound <= optimum + 1e-6,
            "bound {} above the optimum {}", limited.bound, optimum);
        prop_assert!(optimum <= limited.objective + 1e-6,
            "objective {} below the optimum {}", limited.objective, optimum);
        match reference {
            None => {
                prop_assert!(!sol.has_solution());
                let expected = if feasible { Status::Unknown } else { Status::Infeasible };
                prop_assert_eq!(sol.status, expected);
            }
            Some(best) => {
                prop_assert!((sol.objective - best).abs() < 1e-6,
                    "solver got {} but enumeration got {}", sol.objective, best);
                prop_assert!(prob.is_feasible(&sol.values, 1e-6));
                prop_assert!(accepted(&s, &sol.values));
                let expected = if sol.rejected == 0 { Status::Optimal } else { Status::Feasible };
                prop_assert_eq!(sol.status, expected);
            }
        }
    }
}
