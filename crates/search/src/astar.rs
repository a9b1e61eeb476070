//! A* over elimination orderings: A*-tw (thesis Fig. 5.1) and A*-ghw
//! (Fig. 9.1) as one best-first search over a width evaluator
//! (`WidthEvaluator`).
//!
//! Each state is a partial ordering; `g` is its cost so far, `h` the
//! evaluator's node lower bound on the remaining graph, and
//! `f = max(g, h, parent.f)` — nondecreasing along paths, so the `f` of the
//! last visited state is a valid lower bound when the budget runs out
//! (§5.3; the thesis's Tables 9.1–9.2 obtain several improved ghw lower
//! bounds exactly this way). States with `f ≥ ub` are never queued (memory
//! measure, §5.2.3); the graph of the visited state is rebuilt by undoing
//! to the common prefix with the previous state (§5.2.1).

use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use htd_core::ordering::EliminationOrdering;
use htd_hypergraph::{EliminationGraph, Graph, Hypergraph, Vertex, VertexSet};

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, raise_traced};
use crate::pruning::keep_child;
use crate::width::{outcome, prologue, subgraph_tw_lb, GhwWidth, TwWidth, WidthEvaluator};

const WHO: &str = "astar";

/// Computes the treewidth of `graph` with A*. Within budget the result is
/// exact; otherwise `lower` is the largest proven `f` and `upper` the
/// initial min-fill bound (the thesis's anytime behaviour).
///
/// With `cfg.shared` set, the open-list threshold is the shared
/// [`Incumbent`](crate::Incumbent)'s upper bound — states are discarded
/// against bounds found by sibling engines — and the rising min-`f` is
/// published as the run's proven lower bound.
pub fn astar_tw(graph: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    astar(TwWidth::new(graph), cfg)
}

/// Computes `ghw(h)` with A*. Returns `None` when some vertex lies in no
/// hyperedge. Within budget the result is exact; otherwise `lower` is the
/// largest visited `f`.
///
/// With `cfg.shared` set, the open-list threshold is the shared
/// [`Incumbent`](crate::Incumbent)'s upper bound and the rising min-`f` is
/// published as a proven ghw lower bound; with `cfg.cover_cache` set, bag
/// covers are memoized in the shared cache.
pub fn astar_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    Some(astar(GhwWidth::new(h, cfg)?, cfg))
}

/// Reverse-linked elimination path.
struct PathNode {
    v: Vertex,
    parent: Option<Rc<PathNode>>,
}

fn path_to_vec(p: &Option<Rc<PathNode>>) -> Vec<Vertex> {
    let mut out = Vec::new();
    let mut cur = p.clone();
    while let Some(n) = cur {
        out.push(n.v);
        cur = n.parent.clone();
    }
    out.reverse();
    out
}

struct State {
    f: u32,
    g: u32,
    depth: u32,
    seq: u64,
    path: Option<Rc<PathNode>>,
    eliminated: VertexSet,
    /// vertex eliminated to create this state (root: none)
    prev: Option<Vertex>,
    /// vertices that were swappable with `prev` in the parent's graph
    swap_with_prev: VertexSet,
    /// this state was generated as a reduction-forced only child
    forced: bool,
}

impl State {
    /// Min order on f; among equal f prefer deeper states (§5.3), then FIFO.
    fn cmp_key(&self) -> (u32, std::cmp::Reverse<u32>, u64) {
        (self.f, std::cmp::Reverse(self.depth), self.seq)
    }
}
impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse for a min-f queue
        other.cmp_key().cmp(&self.cmp_key())
    }
}

fn astar<E: WidthEvaluator>(mut ev: E, cfg: &SearchConfig) -> SearchOutcome {
    let inc = cfg.incumbent();
    let (lb0, mut rng) = match prologue(&mut ev, cfg, &inc, WHO) {
        Ok(start) => start,
        Err(done) => return done,
    };
    let n = ev.graph().num_vertices();
    let mut stats = SearchStats::default();
    let mut budget = Budget::new(cfg, WHO);
    let mut queue: BinaryHeap<State> = BinaryHeap::new();
    let mut seq = 0u64;
    // duplicate detection: eliminated-set → best g seen
    let mut seen: HashMap<Vec<u64>, u32> = HashMap::new();

    queue.push(State {
        f: lb0,
        g: 0,
        depth: 0,
        seq,
        path: None,
        eliminated: VertexSet::new(n),
        prev: None,
        swap_with_prev: VertexSet::new(n),
        forced: false,
    });

    let mut eg = EliminationGraph::new(ev.graph());
    let mut current_path: Vec<Vertex> = Vec::new();
    let mut global_lb = lb0;

    while let Some(s) = queue.pop() {
        // hot-path span: aggregate-only (no tracer), so the cost stays
        // at two clock reads + a thread-cache hit per expansion
        let _sp_expand = htd_trace::span!("astar.expand");
        let ub = inc.upper();
        if s.f >= ub {
            break; // all open states are ≥ ub: ub is the width
        }
        if !budget.tick() {
            stats.expanded = budget.expanded - 1;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            // cancellation may itself have been a sibling's exact proof
            return outcome(&inc, global_lb, inc.is_exact(), stats);
        }
        global_lb = global_lb.max(s.f);
        // min over open f is a valid lower bound on min(width, ub) (§5.3)
        raise_traced(&inc, &cfg.tracer, WHO, global_lb.min(ub));
        // rebuild graph: undo to common prefix, then eliminate the rest
        let target = path_to_vec(&s.path);
        let common = current_path
            .iter()
            .zip(&target)
            .take_while(|(a, b)| a == b)
            .count();
        eg.undo_to(common);
        current_path.truncate(common);
        for &v in &target[common..] {
            eg.eliminate(v);
            current_path.push(v);
        }
        // goal test: every completion stays within cost g
        if eg.num_alive() == 0 || ev.completion_bound(&eg) <= s.g {
            let mut order = target;
            order.extend(eg.alive().iter());
            stats.expanded = budget.expanded;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            offer_traced(&inc, &cfg.tracer, WHO, s.g, &order);
            inc.mark_exact();
            return SearchOutcome {
                lower: s.g,
                upper: s.g,
                exact: true,
                ordering: Some(EliminationOrdering::new_unchecked(order)),
                stats,
            };
        }
        let _sp_eval = htd_trace::span!("astar.evaluate");
        let forced_child = if cfg.use_reductions {
            ev.reducible(&eg, || subgraph_tw_lb(&eg, &mut rng))
        } else {
            None
        };
        let children = match forced_child {
            Some(v) => vec![v],
            None => eg.alive().to_vec(),
        };
        for v in children {
            if cfg.use_pr2 && !s.forced && forced_child.is_none() {
                if let Some(prev) = s.prev {
                    if !keep_child(prev, v, s.swap_with_prev.contains(v)) {
                        stats.pruned += 1;
                        continue;
                    }
                }
            }
            let cost = ev.bag_cost(&eg, v);
            let mut swap_set = VertexSet::new(n);
            if cfg.use_pr2 {
                for u in eg.alive().iter() {
                    if u != v && ev.swappable(&eg, v, u) {
                        swap_set.insert(u);
                    }
                }
            }
            let mark = eg.log_len();
            eg.eliminate(v);
            let t_g = s.g.max(cost);
            let t_h = if eg.num_alive() == 0 {
                0
            } else {
                ev.node_bound(subgraph_tw_lb(&eg, &mut rng))
            };
            let t_f = t_g.max(t_h).max(lb0).max(s.f);
            if t_f < ub {
                let mut eliminated = s.eliminated.clone();
                eliminated.insert(v);
                let dominated = if cfg.use_duplicate_detection {
                    match seen.get_mut(eliminated.blocks()) {
                        Some(best) if *best <= t_g => true,
                        Some(best) => {
                            *best = t_g;
                            false
                        }
                        None => {
                            // account the closed-set entry; a failed charge
                            // latches the budget and the next tick degrades
                            budget.charge((eliminated.blocks().len() * 8 + 48) as u64);
                            seen.insert(eliminated.blocks().to_vec(), t_g);
                            false
                        }
                    }
                } else {
                    false
                };
                if !dominated {
                    // account the open-list node (two bitsets + headers).
                    // Never *drop* a push on failure — the drained-queue
                    // exactness proof needs every child queued; degradation
                    // happens at the next tick instead.
                    budget.charge((eliminated.blocks().len() * 16 + 80) as u64);
                    seq += 1;
                    stats.generated += 1;
                    queue.push(State {
                        f: t_f,
                        g: t_g,
                        depth: s.depth + 1,
                        seq,
                        path: Some(Rc::new(PathNode {
                            v,
                            parent: s.path.clone(),
                        })),
                        eliminated,
                        prev: Some(v),
                        swap_with_prev: swap_set,
                        forced: forced_child.is_some(),
                    });
                } else {
                    stats.pruned += 1;
                }
            } else {
                stats.pruned += 1;
            }
            eg.undo_to(mark);
        }
        stats.max_queue = stats.max_queue.max(queue.len());
    }
    // queue drained of states below ub: ub is the width
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    outcome(&inc, 0, true, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::{exhaustive_ghw, exhaustive_tw, TwEvaluator};
    use htd_core::{CoverStrategy, GhwEvaluator};
    use htd_hypergraph::gen;

    fn tw_exact(g: &Graph, cfg: &SearchConfig) -> u32 {
        let out = astar_tw(g, cfg);
        assert!(out.exact, "expected exact");
        let o = out.ordering.as_ref().unwrap();
        let mut ev = TwEvaluator::new(g);
        assert!(ev.width(o.as_slice()) <= out.upper);
        out.upper
    }

    fn ghw_exact(h: &Hypergraph, cfg: &SearchConfig) -> u32 {
        let out = astar_ghw(h, cfg).expect("coverable");
        assert!(out.exact, "expected exact");
        let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
        let achieved = ev.width(out.ordering.as_ref().unwrap().as_slice()).unwrap();
        assert!(achieved <= out.upper);
        out.upper
    }

    /// Every combination of the PR2, reduction and duplicate toggles.
    fn toggle_combinations() -> Vec<SearchConfig> {
        let mut cfgs = Vec::new();
        for use_pr2 in [false, true] {
            for use_reductions in [false, true] {
                for use_duplicate_detection in [false, true] {
                    cfgs.push(SearchConfig {
                        use_pr2,
                        use_reductions,
                        use_duplicate_detection,
                        ..SearchConfig::default()
                    });
                }
            }
        }
        cfgs
    }

    #[test]
    fn tw_known_families() {
        let cfg = SearchConfig::default();
        assert_eq!(tw_exact(&gen::path_graph(8), &cfg), 1);
        assert_eq!(tw_exact(&gen::cycle_graph(9), &cfg), 2);
        assert_eq!(tw_exact(&gen::complete_graph(6), &cfg), 5);
        assert_eq!(tw_exact(&gen::grid_graph(3, 3), &cfg), 3);
        assert_eq!(tw_exact(&gen::grid_graph(4, 4), &cfg), 4);
    }

    #[test]
    fn tw_matches_exhaustive_all_toggle_combinations() {
        for seed in 0..8u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let truth = exhaustive_tw(&g);
            for cfg in toggle_combinations() {
                let toggles = (cfg.use_pr2, cfg.use_reductions, cfg.use_duplicate_detection);
                assert_eq!(
                    tw_exact(&g, &cfg),
                    truth,
                    "seed {seed} (pr2, red, dup) = {toggles:?}"
                );
            }
        }
    }

    #[test]
    fn tw_queen5_is_18() {
        let out = astar_tw(&gen::queen_graph(5), &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.upper, 18);
    }

    #[test]
    fn tw_agrees_with_bb() {
        for seed in 20..28u64 {
            let g = gen::random_gnp(10, 0.3, seed);
            let cfg = SearchConfig::default();
            let a = astar_tw(&g, &cfg);
            let b = crate::bb::bb_tw(&g, &cfg);
            assert!(a.exact && b.exact);
            assert_eq!(a.upper, b.upper, "seed {seed}");
        }
    }

    #[test]
    fn tw_budget_exhaustion_reports_lower_bound() {
        let out = astar_tw(&gen::queen_graph(6), &SearchConfig::budgeted(30));
        assert!(!out.exact);
        assert!(out.lower <= 25 && out.upper >= 25);
        assert!(out.lower >= 1);
    }

    #[test]
    fn tw_trivial_graphs() {
        let cfg = SearchConfig::default();
        assert_eq!(tw_exact(&Graph::new(3), &cfg), 0);
        assert_eq!(tw_exact(&Graph::from_edges(2, [(0, 1)]), &cfg), 1);
    }

    #[test]
    fn ghw_known_families() {
        let cfg = SearchConfig::default();
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(ghw_exact(&th, &cfg), 2);
        assert_eq!(ghw_exact(&gen::clique_hypergraph(6), &cfg), 3);
        let chain = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert_eq!(ghw_exact(&chain, &cfg), 1);
    }

    #[test]
    fn ghw_matches_exhaustive_all_toggle_combinations() {
        for seed in 0..8u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let truth = exhaustive_ghw(&h).unwrap();
            for cfg in toggle_combinations() {
                let toggles = (cfg.use_pr2, cfg.use_reductions, cfg.use_duplicate_detection);
                assert_eq!(
                    ghw_exact(&h, &cfg),
                    truth,
                    "seed {seed} (pr2, red, dup) = {toggles:?}"
                );
            }
        }
    }

    #[test]
    fn ghw_agrees_with_bb() {
        for seed in 10..16u64 {
            let h = gen::random_uniform(8, 9, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let cfg = SearchConfig::default();
            let a = astar_ghw(&h, &cfg).unwrap();
            let b = crate::bb::bb_ghw(&h, &cfg).unwrap();
            assert!(a.exact && b.exact);
            assert_eq!(a.upper, b.upper, "seed {seed}");
        }
    }

    #[test]
    fn ghw_uncoverable_returns_none() {
        let h = Hypergraph::new(2, vec![vec![0]]);
        assert!(astar_ghw(&h, &SearchConfig::default()).is_none());
    }

    #[test]
    fn ghw_budget_exhaustion_reports_bounds() {
        let out = astar_ghw(&gen::grid2d(6), &SearchConfig::budgeted(10)).unwrap();
        assert!(out.lower <= out.upper);
        assert!(out.lower >= 1);
    }
}
