//! Correctness checks. Answers are compared with references computed by
//! search that uses no decomposition; solve outcomes must pass the
//! `htd-check` oracle.

use htd_csp::backtrack::{count_all_solutions, forward_checking_solve};
use htd_csp::{Constraint, Csp};
use htd_query::{Answer, AnswerMode};
use htd_search::{Outcome, Problem};

use crate::gen::QueryCase;

/// The reference result of one query, computed before it is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Boolean mode: whether the query has an answer.
    Satisfiable(bool),
    /// Count mode: the number of answers.
    Count(u64),
    /// Enumeration mode: checked tuple by tuple after the response.
    Enumerate,
}

/// Computes the reference for `case`: forward checking for verdicts,
/// exhaustive backtracking for counts.
pub fn reference(case: &QueryCase) -> Reference {
    match case.mode {
        AnswerMode::Boolean => {
            Reference::Satisfiable(forward_checking_solve(&case.csp).solution.is_some())
        }
        AnswerMode::Count => Reference::Count(count_all_solutions(&case.csp)),
        AnswerMode::Enumerate => Reference::Enumerate,
    }
}

/// Maps a served answer tuple (rendered values, head order) back to
/// values, checking its arity.
fn values(case: &QueryCase, tuple: &[String]) -> Result<Vec<u32>, String> {
    if tuple.len() != case.head.len() {
        return Err(format!(
            "tuple of arity {} for a head of {}",
            tuple.len(),
            case.head.len()
        ));
    }
    tuple
        .iter()
        .map(|s| {
            s.parse::<u32>()
                .map_err(|_| format!("value {s:?} is not in the domain"))
        })
        .collect()
}

/// Whether the head assignment `vals` extends to a solution, by forward
/// checking with the head variables pinned.
fn extends(case: &QueryCase, vals: &[u32]) -> bool {
    let mut pinned: Csp = case.csp.clone();
    for (&v, &x) in case.head.iter().zip(vals) {
        pinned.add_constraint(Constraint::new("pin", vec![v], vec![vec![x]]));
    }
    forward_checking_solve(&pinned).solution.is_some()
}

/// Checks a served answer against the reference.
pub fn check_answer(case: &QueryCase, reference: Reference, answer: &Answer) -> Result<(), String> {
    match reference {
        Reference::Satisfiable(sat) => {
            if answer.satisfiable != sat {
                return Err(format!(
                    "satisfiable {} but the reference says {sat}",
                    answer.satisfiable
                ));
            }
            if sat {
                // the head holds every variable, so the witness is total
                let [tuple] = answer.tuples.as_slice() else {
                    return Err(format!("{} witnesses instead of one", answer.tuples.len()));
                };
                let vals = values(case, tuple)?;
                let mut assignment = vec![0; case.csp.num_vars() as usize];
                for (&v, &x) in case.head.iter().zip(&vals) {
                    assignment[v as usize] = x;
                }
                if !case.csp.is_solution(&assignment) {
                    return Err("the witness violates an atom".into());
                }
            }
            Ok(())
        }
        Reference::Count(count) => match answer.count {
            Some(c) if c == count => Ok(()),
            other => Err(format!("count {other:?} but the reference counts {count}")),
        },
        Reference::Enumerate => {
            let limit = case.limit.unwrap_or(u64::MAX);
            // the generator plants more distinct answers than the limit
            if answer.tuples.len() as u64 != limit || !answer.truncated {
                return Err(format!(
                    "{} answers (truncated {}) where the limit {limit} must be reached",
                    answer.tuples.len(),
                    answer.truncated
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for tuple in &answer.tuples {
                let vals = values(case, tuple)?;
                if !seen.insert(vals.clone()) {
                    return Err(format!("answer {tuple:?} repeated"));
                }
                if !extends(case, &vals) {
                    return Err(format!("answer {tuple:?} extends to no solution"));
                }
            }
            Ok(())
        }
    }
}

/// Checks a served solve outcome: the oracle must accept it for the
/// instance exactly as sent.
pub fn check_outcome(problem: &Problem, outcome: &Outcome) -> Result<(), String> {
    let report = htd_check::verify_outcome(problem, outcome);
    if report.is_valid() {
        Ok(())
    } else {
        Err(format!("oracle rejects the outcome: {report}"))
    }
}
