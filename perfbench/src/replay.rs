//! In-process replays of served requests for the traced run: the same
//! generated input and configuration the server uses, passed through each
//! layer's public functions with a span around every call, and the
//! result compared with the served one.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use htd_core::bucket::td_of_hypergraph;
use htd_core::EliminationOrdering;
use htd_csp::count::count_join_tree;
use htd_csp::{acyclic_solve, estimate_node_tuples, for_each_solution_td, node_relations};
use htd_hypergraph::canonical::canonical_form;
use htd_query::{parse_query, Answer, AnswerMode, FileAccess};
use htd_search::{solve, Outcome, Problem, SearchConfig};
use htd_service::parse_problem;

use crate::gen::{QueryCase, SolveInstance};
use crate::stats::ratio;
use crate::trace::Recorder;
use crate::LayerValues;

/// The server's default per-request deadline, which bounds the replayed
/// searches exactly as it bounds the served ones.
const DEADLINE: Duration = Duration::from_millis(10_000);

/// Work counts of one replayed request.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Search nodes expanded.
    pub expansions: u64,
    /// Searches run.
    pub solves: u64,
    /// Searches that proved their width.
    pub exact: u64,
    /// Set-cover cache lookups and hits.
    pub cover_lookups: u64,
    /// Set-cover cache hits.
    pub cover_hits: u64,
    /// Width of the decomposition built (answers).
    pub width: u32,
    /// Tuples in the materialized node relations.
    pub node_tuples: u64,
    /// Solutions walked by enumeration.
    pub walked: u64,
}

/// The per-layer work values of `counts`, one entry per traced request.
pub fn work_values(counts: &[&Counts]) -> LayerValues {
    let n = counts.len().max(1) as f64;
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(|c| f(c)).sum::<u64>() as f64;
    LayerValues {
        expansions: sum(|c| c.expansions) / n,
        exact_ratio: ratio(sum(|c| c.exact), sum(|c| c.solves)),
        cover_lookups: sum(|c| c.cover_lookups) / n,
        cover_hit_ratio: ratio(sum(|c| c.cover_hits), sum(|c| c.cover_lookups)),
        width_mean: sum(|c| u64::from(c.width)) / n,
        node_tuples: sum(|c| c.node_tuples) / n,
        walked: sum(|c| c.walked) / n,
        ..LayerValues::default()
    }
}

/// The decomposition search an answer runs on a shape-cache miss: one
/// thread, a 200 000-node budget and the deadline.
fn answer_search() -> SearchConfig {
    SearchConfig::default()
        .with_max_nodes(200_000)
        .with_time_limit(DEADLINE)
        .with_threads(1)
}

/// Replays an answer request. `orderings` plays the server's shape cache:
/// a served hit must find its shape there, a served miss searches again.
pub fn answer(
    rec: &mut Recorder,
    request: u64,
    parent: u64,
    case: &QueryCase,
    served: &Answer,
    orderings: &mut HashMap<Vec<u8>, EliminationOrdering>,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let q = rec
        .time(request, parent, "query.parse", || {
            parse_query(&case.text, &FileAccess::Deny)
        })
        .map_err(|e| format!("replay parse: {e}"))?;
    let h = q.csp.hypergraph();
    let canon = rec.time(request, parent, "hypergraph.canonical", || {
        canonical_form(&h)
    });
    let order = match (served.stats.shape_cache_hit, orderings.get(&canon.bytes)) {
        (true, Some(order)) => order.clone(),
        (true, None) => return Err("served a shape-cache hit for a shape never decomposed".into()),
        (false, _) => {
            let problem = Problem::treewidth_of_hypergraph(h.clone());
            let cfg = answer_search();
            let outcome = rec
                .time(request, parent, "search.solve", || solve(&problem, &cfg))
                .map_err(|e| format!("replay search: {e}"))?;
            add_outcome(&mut counts, &outcome);
            let order = outcome.witness.ok_or("replay search found no ordering")?;
            orderings.insert(canon.bytes, order.clone());
            order
        }
    };
    let td = rec.time(request, parent, "core.td_build", || {
        td_of_hypergraph(&h, &order)
    });
    counts.width = td.width();
    if td.width() != served.stats.width {
        return Err(format!(
            "replayed decomposition has width {} but the served one {}",
            td.width(),
            served.stats.width
        ));
    }
    rec.time(request, parent, "csp.estimate", || {
        estimate_node_tuples(&q.csp, &td)
    });
    let render = |t: &[u32]| -> Vec<String> {
        q.head
            .iter()
            .map(|&v| q.render_value(t[v as usize]))
            .collect()
    };
    match case.mode {
        AnswerMode::Boolean => {
            let rels = rec.time(request, parent, "csp.node_relations", || {
                node_relations(&q.csp, &td)
            });
            counts.node_tuples = rels.iter().map(|r| r.len() as u64).sum();
            let witness = rec.time(request, parent, "csp.semijoin", || {
                if rels.iter().any(|r| r.is_empty()) {
                    None
                } else {
                    acyclic_solve(&td, &rels, q.csp.num_vars())
                }
            });
            let tuples: Vec<Vec<String>> = witness.iter().map(|a| render(a)).collect();
            if witness.is_some() != served.satisfiable || tuples != served.tuples {
                return Err("replayed witness differs from the served one".into());
            }
        }
        AnswerMode::Count => {
            let rels = rec.time(request, parent, "csp.node_relations", || {
                node_relations(&q.csp, &td)
            });
            counts.node_tuples = rels.iter().map(|r| r.len() as u64).sum();
            let count = rec.time(request, parent, "csp.count", || count_join_tree(&td, &rels));
            if Some(count) != served.count {
                return Err(format!(
                    "replayed count {count} but served {:?}",
                    served.count
                ));
            }
        }
        AnswerMode::Enumerate => {
            // node relations are built inside the enumeration
            let limit = case.limit.unwrap_or(u64::MAX);
            let mut seen: HashSet<Vec<String>> = HashSet::new();
            let mut tuples: Vec<Vec<String>> = Vec::new();
            counts.walked = rec.time(request, parent, "csp.enumerate", || {
                for_each_solution_td(&q.csp, &td, |a| {
                    let t = render(a);
                    if seen.insert(t.clone()) {
                        tuples.push(t);
                    }
                    (tuples.len() as u64) < limit
                })
            });
            if tuples != served.tuples {
                return Err("replayed enumeration differs from the served one".into());
            }
        }
    }
    Ok(counts)
}

/// Adds a search outcome's work counts.
fn add_outcome(counts: &mut Counts, o: &Outcome) {
    counts.solves += 1;
    counts.expansions += o.nodes;
    counts.exact += u64::from(o.exact);
    counts.cover_lookups += o.cover_cache_hits + o.cover_cache_misses;
    counts.cover_hits += o.cover_cache_hits;
}

/// Replays a solve request: parse, canonical form, and on a served
/// result-cache miss the search the server ran (one thread, the
/// request's node budget or the default portfolio configuration).
pub fn solve_request(
    rec: &mut Recorder,
    request: u64,
    parent: u64,
    instance: &SolveInstance,
    text: &str,
    served: &Outcome,
    cached: bool,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let (problem, key) = rec
        .time(request, parent, "hypergraph.parse", || {
            parse_problem(instance.format(), text, instance.objective)
        })
        .map_err(|e| format!("replay parse: {e}"))?;
    rec.time(request, parent, "hypergraph.canonical", || {
        canonical_form(&key)
    });
    if cached {
        return Ok(counts);
    }
    let cfg = match instance.budget {
        Some(b) => SearchConfig::budgeted(b),
        None => SearchConfig::portfolio(),
    }
    .with_time_limit(DEADLINE)
    .with_threads(1);
    let outcome = rec
        .time(request, parent, "search.solve", || solve(&problem, &cfg))
        .map_err(|e| format!("replay search: {e}"))?;
    if (outcome.upper, outcome.exact) != (served.upper, served.exact) {
        return Err(format!(
            "replayed search gives width {} (exact {}) but the served one {} (exact {})",
            outcome.upper, outcome.exact, served.upper, served.exact
        ));
    }
    // the work counts are the served request's own
    add_outcome(&mut counts, served);
    Ok(counts)
}
