//! Depth-first branch and bound over elimination orderings: BB-tw (thesis
//! §4.4, after QuickBB \[24\] and BB-tw \[5\]) and BB-ghw (Fig. 8.3) as one
//! search over a width evaluator (`WidthEvaluator`).
//!
//! Pruning: the node lower bound (minor-min-width for tw, `tw-ksc` for
//! ghw, §8.1), pruning rule 1 (any completion of a node is achievable
//! within its completion bound), pruning rule 2 (swap symmetry, §4.4.5 /
//! §8.3) and the reduction rules (§4.4.3 / §8.2).

use htd_hypergraph::{EliminationGraph, Graph, Hypergraph, Vertex, VertexSet};
use rand::rngs::StdRng;

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, Incumbent};
use crate::pruning::keep_child;
use crate::width::{outcome, prologue, subgraph_tw_lb, GhwWidth, TwWidth, WidthEvaluator};

const WHO: &str = "branch_bound";

/// Computes the treewidth of `g` by branch and bound over elimination
/// orderings. Within budget the result is exact; otherwise `lower`/`upper`
/// are valid anytime bounds.
///
/// With `cfg.shared` set, the search prunes against and publishes to the
/// shared [`Incumbent`], and stops early when it is cancelled.
///
/// ```
/// use htd_search::{bb::bb_tw, SearchConfig};
/// use htd_hypergraph::gen;
/// let out = bb_tw(&gen::grid_graph(4, 4), &SearchConfig::default());
/// assert_eq!(out.exact_width(), Some(4));
/// ```
pub fn bb_tw(g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    branch_and_bound(TwWidth::new(g), cfg)
}

/// Computes `ghw(h)` by branch and bound: the cost of a partial ordering
/// is the maximum **exact** cover size of the bags it has produced
/// (Definition 17), so by Theorem 3 the minimum over complete orderings is
/// `ghw(h)`. Returns `None` when some vertex lies in no hyperedge (no GHD
/// exists). Within budget the result is exact.
///
/// With `cfg.shared` set, the search prunes against and publishes to the
/// shared [`Incumbent`]; with `cfg.cover_cache` set, bag covers are
/// memoized in the shared [`CoverCache`](htd_setcover::CoverCache) (which
/// must be dedicated to `h` and the exact strategy).
pub fn bb_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    Some(branch_and_bound(GhwWidth::new(h, cfg)?, cfg))
}

fn branch_and_bound<E: WidthEvaluator>(mut ev: E, cfg: &SearchConfig) -> SearchOutcome {
    let inc = cfg.incumbent();
    let (lb0, rng) = match prologue(&mut ev, cfg, &inc, WHO) {
        Ok(start) => start,
        Err(done) => return done,
    };
    let mut dfs = Dfs::new(ev, cfg, &inc, WHO, lb0, rng);
    let _sp = htd_trace::span!("bb.search", &cfg.tracer);
    // a cancelled run is still exact when cancellation *was* the exact
    // proof (this search or a sibling closed the gap)
    let completed = dfs.search(0, None) || inc.is_exact();
    outcome(&inc, inc.lower(), completed, dfs.finish())
}

/// One depth-first search. The best-so-far lives in the incumbent, never
/// in locals, so bounds found by sibling engines or workers prune this
/// search too.
pub(crate) struct Dfs<'a, E> {
    ev: E,
    cfg: &'a SearchConfig,
    inc: &'a Incumbent,
    who: &'static str,
    /// root lower bound on the width
    lb0: u32,
    rng: StdRng,
    budget: Budget,
    stats: SearchStats,
    /// the graph after eliminating `order`
    eg: EliminationGraph,
    order: Vec<Vertex>,
}

impl<'a, E: WidthEvaluator> Dfs<'a, E> {
    pub(crate) fn new(
        ev: E,
        cfg: &'a SearchConfig,
        inc: &'a Incumbent,
        who: &'static str,
        lb0: u32,
        rng: StdRng,
    ) -> Self {
        let eg = EliminationGraph::new(ev.graph());
        Dfs {
            order: Vec::with_capacity(eg.capacity() as usize),
            eg,
            ev,
            cfg,
            inc,
            who,
            lb0,
            rng,
            budget: Budget::new(cfg, who),
            stats: SearchStats::default(),
        }
    }

    /// The search's counters, once it is over.
    pub(crate) fn finish(self) -> SearchStats {
        SearchStats {
            expanded: self.budget.expanded,
            elapsed: self.budget.elapsed(),
            ..self.stats
        }
    }

    /// Searches below the current node, whose bags so far cost at most
    /// `g_width`. `swap_with_prev` holds the vertex eliminated to reach
    /// this node and the vertices swappable with it. Returns `false` iff
    /// the budget ran out or the run was cancelled somewhere below (the
    /// result is no longer guaranteed exact).
    fn search(&mut self, g_width: u32, swap_with_prev: Option<(Vertex, VertexSet)>) -> bool {
        if !self.budget.tick() {
            return false;
        }
        // one span per branching node; paths nest with recursion depth
        let _sp = htd_trace::span!("bb.branch");
        let eg = &self.eg;
        if eg.num_alive() == 0 {
            offer_traced(self.inc, &self.cfg.tracer, self.who, g_width, &self.order);
            return true;
        }
        // PR1: any completion has width ≤ max(g, completion bound)
        let rest = self.ev.completion_bound(eg);
        let w = g_width.max(rest);
        if w < self.inc.upper() {
            let mut o = self.order.clone();
            o.extend(eg.alive().iter());
            offer_traced(self.inc, &self.cfg.tracer, self.who, w, &o);
        }
        if rest <= g_width {
            return true; // subtree width is exactly g, recorded above
        }
        let sub_lb = subgraph_tw_lb(eg, &mut self.rng);
        if g_width.max(self.ev.node_bound(sub_lb)).max(self.lb0) >= self.inc.upper() {
            self.stats.pruned += 1;
            return true;
        }
        // children: a reduction-forced single child, or every alive vertex
        // by ascending degree (low-degree vertices rarely hurt and find
        // good incumbents early)
        let forced = if self.cfg.use_reductions {
            self.ev.reducible(eg, || sub_lb)
        } else {
            None
        };
        match forced {
            Some(v) => self.branch(g_width, &[v], true, None),
            None => {
                let mut children = eg.alive().to_vec();
                children.sort_by_key(|&v| eg.degree(v));
                self.branch(g_width, &children, false, swap_with_prev)
            }
        }
    }

    /// Recurses into each child in turn. A `forced` (reduction) child must
    /// not seed pruning rule 2: its siblings were never branched on, so
    /// the canonical-order argument has no other branch to defer to.
    pub(crate) fn branch(
        &mut self,
        g_width: u32,
        children: &[Vertex],
        forced: bool,
        swap_with_prev: Option<(Vertex, VertexSet)>,
    ) -> bool {
        let mut completed = true;
        for &v in children {
            // PR2: skip children that are canonical-order duplicates
            let duplicate = swap_with_prev
                .as_ref()
                .is_some_and(|(prev, swap_set)| !keep_child(*prev, v, swap_set.contains(v)));
            if duplicate {
                self.stats.pruned += 1;
                continue;
            }
            let child_g = g_width.max(self.ev.bag_cost(&self.eg, v));
            if child_g >= self.inc.upper() {
                self.stats.pruned += 1;
                continue;
            }
            // swappability of v with the surviving vertices (both alive
            // here), for the child's own PR2 filter
            let swap_set = (self.cfg.use_pr2 && !forced).then(|| {
                let mut s = VertexSet::new(self.eg.capacity());
                for u in self.eg.alive().iter() {
                    if u != v && self.ev.swappable(&self.eg, v, u) {
                        s.insert(u);
                    }
                }
                (v, s)
            });
            let mark = self.eg.log_len();
            self.eg.eliminate(v);
            self.order.push(v);
            self.stats.generated += 1;
            completed &= self.search(child_g, swap_set);
            self.order.pop();
            self.eg.undo_to(mark);
            if !completed {
                break; // budget exhausted or run cancelled
            }
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::{exhaustive_ghw, exhaustive_tw, TwEvaluator};
    use htd_core::{CoverStrategy, GhwEvaluator};
    use htd_hypergraph::gen;

    fn tw_exact(g: &Graph, cfg: &SearchConfig) -> u32 {
        let out = bb_tw(g, cfg);
        assert!(out.exact, "expected exact result");
        // the returned ordering must achieve the reported upper bound
        let o = out.ordering.as_ref().unwrap();
        let mut ev = TwEvaluator::new(g);
        assert!(ev.width(o.as_slice()) <= out.upper);
        out.upper
    }

    fn ghw_exact(h: &Hypergraph, cfg: &SearchConfig) -> u32 {
        let out = bb_ghw(h, cfg).expect("coverable");
        assert!(out.exact, "expected exact");
        // verify the ordering really achieves the upper bound
        let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
        let achieved = ev.width(out.ordering.as_ref().unwrap().as_slice()).unwrap();
        assert!(achieved <= out.upper);
        out.upper
    }

    /// Every combination of the PR2 and reduction toggles.
    fn toggle_combinations() -> Vec<SearchConfig> {
        let mut cfgs = Vec::new();
        for use_pr2 in [false, true] {
            for use_reductions in [false, true] {
                cfgs.push(SearchConfig {
                    use_pr2,
                    use_reductions,
                    ..SearchConfig::default()
                });
            }
        }
        cfgs
    }

    #[test]
    fn tw_known_families() {
        let cfg = SearchConfig::default();
        assert_eq!(tw_exact(&gen::path_graph(8), &cfg), 1);
        assert_eq!(tw_exact(&gen::cycle_graph(8), &cfg), 2);
        assert_eq!(tw_exact(&gen::complete_graph(7), &cfg), 6);
        assert_eq!(tw_exact(&gen::grid_graph(3, 3), &cfg), 3);
        assert_eq!(tw_exact(&gen::grid_graph(4, 4), &cfg), 4);
        assert_eq!(tw_exact(&gen::random_ktree(16, 4, 3), &cfg), 4);
    }

    #[test]
    fn tw_matches_exhaustive_all_toggle_combinations() {
        for seed in 0..12u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let truth = exhaustive_tw(&g);
            for cfg in toggle_combinations() {
                let (pr2, red) = (cfg.use_pr2, cfg.use_reductions);
                assert_eq!(tw_exact(&g, &cfg), truth, "seed {seed} pr2={pr2} red={red}");
            }
        }
    }

    #[test]
    fn tw_queen5_is_18() {
        // the thesis's Table 5.1 reports tw(queen5_5) = 18
        let out = bb_tw(&gen::queen_graph(5), &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.upper, 18);
    }

    #[test]
    fn tw_budget_exhaustion_gives_valid_bounds() {
        let out = bb_tw(&gen::queen_graph(6), &SearchConfig::budgeted(50));
        assert!(!out.exact);
        assert!(out.lower <= out.upper);
        // Table 5.1: tw(queen6_6) = 25
        assert!(out.lower <= 25);
        assert!(out.upper >= 25);
    }

    #[test]
    fn tw_empty_and_single_vertex() {
        let cfg = SearchConfig::default();
        assert_eq!(tw_exact(&Graph::new(1), &cfg), 0);
        assert_eq!(tw_exact(&Graph::new(5), &cfg), 0);
        let out = bb_tw(&Graph::new(0), &cfg);
        assert!(out.exact);
        assert_eq!(out.upper, 0);
    }

    #[test]
    fn tw_pruning_reduces_work() {
        let g = gen::queen_graph(4);
        let full = bb_tw(&g, &SearchConfig::default());
        let bare = bb_tw(&g, &SearchConfig::default().without_pruning());
        assert!(full.exact && bare.exact);
        assert_eq!(full.upper, bare.upper);
        assert!(
            full.stats.expanded <= bare.stats.expanded,
            "pruning should not expand more nodes ({} vs {})",
            full.stats.expanded,
            bare.stats.expanded
        );
    }

    #[test]
    fn ghw_known_families() {
        let cfg = SearchConfig::default();
        // acyclic chain
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert_eq!(ghw_exact(&h, &cfg), 1);
        // thesis example
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(ghw_exact(&th, &cfg), 2);
        // triangle of binary edges
        let t = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(ghw_exact(&t, &cfg), 2);
        // clique hypergraphs: ghw = ⌈k/2⌉
        assert_eq!(ghw_exact(&gen::clique_hypergraph(6), &cfg), 3);
        assert_eq!(ghw_exact(&gen::clique_hypergraph(7), &cfg), 4);
    }

    #[test]
    fn ghw_adder_family_has_small_ghw() {
        let w = ghw_exact(&gen::adder(3), &SearchConfig::default());
        assert!(w <= 2, "adder(3) ghw = {w}");
        assert!(w >= 1);
    }

    #[test]
    fn ghw_matches_exhaustive_all_toggle_combinations() {
        for seed in 0..10u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let truth = exhaustive_ghw(&h).unwrap();
            for cfg in toggle_combinations() {
                let (pr2, red) = (cfg.use_pr2, cfg.use_reductions);
                assert_eq!(
                    ghw_exact(&h, &cfg),
                    truth,
                    "seed {seed} pr2={pr2} red={red}"
                );
            }
        }
    }

    #[test]
    fn ghw_acyclic_generated_instances_have_ghw_1() {
        let cfg = SearchConfig::default();
        for seed in 0..5 {
            let h = gen::random_acyclic(8, 3, seed);
            assert_eq!(ghw_exact(&h, &cfg), 1, "seed {seed}");
        }
    }

    #[test]
    fn ghw_uncoverable_returns_none() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(bb_ghw(&h, &SearchConfig::default()).is_none());
    }

    #[test]
    fn ghw_budget_exhaustion_gives_valid_bounds() {
        let out = bb_ghw(&gen::grid2d(6), &SearchConfig::budgeted(20)).unwrap();
        assert!(out.lower <= out.upper);
    }

    #[test]
    fn ghw_private_cover_cache_charges_the_memory_budget() {
        let cfg = SearchConfig::default().with_memory_budget(1 << 20);
        let out = bb_ghw(&gen::adder(3), &cfg).unwrap();
        assert!(out.exact);
        let budget = cfg.memory_budget.as_ref().unwrap();
        assert!(
            budget.used() > 0,
            "cover cache must be charged to the budget"
        );
    }

    #[test]
    fn every_generated_child_is_expanded_in_a_completed_run() {
        // the root is expanded without being generated; every child is
        // counted as generated only once it is searched
        let tw = bb_tw(&gen::queen_graph(5), &SearchConfig::default());
        let ghw = bb_ghw(&gen::grid2d(6), &SearchConfig::default()).unwrap();
        for (name, out) in [("tw", tw), ("ghw", ghw)] {
            assert!(out.exact, "{name}");
            assert!(out.stats.expanded > 0, "{name}");
            assert_eq!(out.stats.expanded, out.stats.generated + 1, "{name}");
        }
    }
}
