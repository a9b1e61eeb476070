//! The width evaluators the exact searches are generic over.
//!
//! The thesis defines treewidth and generalized hypertree width the same
//! way (Theorem 3 / Definition 17): the minimum over elimination orderings
//! of the worst bag cost, where a bag costs `|bag| − 1` for `tw` and its
//! exact edge-cover number for `ghw`. So BB-tw and BB-ghw (§4.4, Fig. 8.3)
//! are one depth-first search, and A*-tw and A*-ghw (Figs. 5.1, 9.1) one
//! best-first search, over a [`WidthEvaluator`] that supplies exactly the
//! steps in which the two widths differ.

use std::sync::Arc;

use htd_core::ordering::EliminationOrdering;
use htd_core::{CoverStrategy, GhwEvaluator};
use htd_heuristics::lower::minor_min_width;
use htd_heuristics::reduce;
use htd_heuristics::upper::{min_degree, min_fill};
use htd_hypergraph::{EliminationGraph, Graph, Hypergraph, Vertex, VertexSet};
use htd_setcover::CoverCache;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, raise_traced, Incumbent};

/// The width-specific steps of an exact search over elimination orderings.
pub(crate) trait WidthEvaluator {
    /// The graph whose elimination orderings are searched.
    fn graph(&self) -> &Graph;

    /// Runs the root heuristics: offers each initial upper bound with its
    /// ordering to `offer` and returns a lower bound on the width.
    fn initial_bounds(&mut self, rng: &mut StdRng, offer: impl FnMut(u32, &[Vertex])) -> u32;

    /// The cost of the bag that eliminating `v` next produces.
    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> u32;

    /// A width that eliminating the (non-empty) alive set in any order
    /// stays within (pruning rule 1).
    fn completion_bound(&self, eg: &EliminationGraph) -> u32;

    /// A lower bound on the cost of some future bag, given a lower bound
    /// on the treewidth of the (non-empty) alive subgraph.
    fn node_bound(&self, subgraph_tw_lb: u32) -> u32;

    /// A vertex the reduction rules force next. `subgraph_tw_lb` computes
    /// a lower bound on the alive subgraph's treewidth, for rules that
    /// need one.
    fn reducible(
        &self,
        eg: &EliminationGraph,
        subgraph_tw_lb: impl FnOnce() -> u32,
    ) -> Option<Vertex>;

    /// Whether eliminating `v` then `u` costs the same as `u` then `v`,
    /// with both still alive (pruning rule 2).
    fn swappable(&self, eg: &EliminationGraph, v: Vertex, u: Vertex) -> bool;
}

/// Treewidth: a bag costs its vertex count minus one.
pub(crate) struct TwWidth<'a> {
    graph: &'a Graph,
}

impl<'a> TwWidth<'a> {
    pub(crate) fn new(graph: &'a Graph) -> Self {
        TwWidth { graph }
    }
}

impl WidthEvaluator for TwWidth<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn initial_bounds(&mut self, rng: &mut StdRng, mut offer: impl FnMut(u32, &[Vertex])) -> u32 {
        let lb0 = htd_heuristics::combined_lower_bound(self.graph, rng);
        let h0 = min_fill(self.graph, rng);
        offer(h0.width, h0.ordering.as_slice());
        lb0
    }

    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> u32 {
        eg.degree(v)
    }

    fn completion_bound(&self, eg: &EliminationGraph) -> u32 {
        eg.num_alive() - 1
    }

    fn node_bound(&self, subgraph_tw_lb: u32) -> u32 {
        subgraph_tw_lb
    }

    /// The almost-simplicial rule is only safe below a lower bound on the
    /// alive subgraph's treewidth — not below the node's `f`, whose
    /// path-cost and root-bound parts say nothing about the subgraph.
    fn reducible(
        &self,
        eg: &EliminationGraph,
        subgraph_tw_lb: impl FnOnce() -> u32,
    ) -> Option<Vertex> {
        reduce::find_reducible(eg, subgraph_tw_lb())
    }

    fn swappable(&self, eg: &EliminationGraph, v: Vertex, u: Vertex) -> bool {
        crate::pruning::swappable(eg, v, u)
    }
}

/// Generalized hypertree width: a bag costs its exact minimum cover by
/// hyperedges, memoized in a [`CoverCache`].
pub(crate) struct GhwWidth<'a> {
    h: &'a Hypergraph,
    primal: Graph,
    rank: u32,
    /// exact bag covers, memoized in the run's cover cache
    covers: GhwEvaluator,
}

impl<'a> GhwWidth<'a> {
    /// `None` when some vertex lies in no hyperedge (no GHD exists), so
    /// every bag the search meets has a cover. Bag
    /// covers go to `cfg.cover_cache` (which must be dedicated to `h` and
    /// the exact strategy), else to a private cache charged to
    /// `cfg.memory_budget`.
    pub(crate) fn new(h: &'a Hypergraph, cfg: &SearchConfig) -> Option<Self> {
        if !h.covers_all_vertices() {
            return None;
        }
        let cache = cfg.cover_cache.clone().unwrap_or_else(|| {
            Arc::new(match &cfg.memory_budget {
                Some(m) => CoverCache::with_budget(Arc::clone(m)),
                None => CoverCache::new(),
            })
        });
        Some(GhwWidth {
            h,
            primal: h.primal_graph(),
            rank: h.rank(),
            covers: GhwEvaluator::with_cache(h, CoverStrategy::Exact, cache),
        })
    }
}

impl WidthEvaluator for GhwWidth<'_> {
    fn graph(&self) -> &Graph {
        &self.primal
    }

    /// The best of the min-fill and min-degree orderings under exact
    /// covering, and the `tw-ksc` lower bound.
    fn initial_bounds(&mut self, rng: &mut StdRng, mut offer: impl FnMut(u32, &[Vertex])) -> u32 {
        let candidates = [
            min_fill(&self.primal, rng).ordering,
            min_degree(&self.primal, rng).ordering,
        ];
        for c in &candidates {
            if let Some(w) = self.covers.width(c.as_slice()) {
                offer(w, c.as_slice());
            }
        }
        htd_heuristics::ghw_lower_bound(self.h, rng)
    }

    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> u32 {
        self.covers
            .cover_bag(&eg.bag(v))
            .expect("every vertex lies in a hyperedge")
    }

    /// Covers are monotone, so every bag of any completion costs at most
    /// the cover of the whole alive set; greedy is enough for a bound that
    /// only has to be achievable (an exact cover of the alive set would be
    /// exponential in its size).
    fn completion_bound(&self, eg: &EliminationGraph) -> u32 {
        let alive = eg.alive();
        let mut candidates: Vec<&VertexSet> = Vec::new();
        let mut stamp = vec![false; self.h.num_edges() as usize];
        for v in alive.iter() {
            for &e in self.h.incident_edges(v) {
                if !stamp[e as usize] {
                    stamp[e as usize] = true;
                    candidates.push(&self.h.edges()[e as usize]);
                }
            }
        }
        let mut uncovered = alive.clone();
        let mut count = 0u32;
        while !uncovered.is_empty() {
            let (best, gain) = candidates
                .iter()
                .map(|e| e.intersection_len(&uncovered))
                .enumerate()
                .max_by_key(|&(_, gain)| gain)
                .expect("a non-empty alive set has incident edges");
            assert!(gain > 0, "every vertex lies in a hyperedge");
            uncovered.difference_with(candidates[best]);
            count += 1;
        }
        count
    }

    /// Some future bag has at least `tw_lb + 1` vertices (the completion is
    /// a tree decomposition of the alive subgraph), and covering `s`
    /// vertices needs `⌈s / rank⌉` edges (§8.1).
    fn node_bound(&self, subgraph_tw_lb: u32) -> u32 {
        htd_setcover::ksc_lower_bound(subgraph_tw_lb + 1, self.rank)
    }

    /// The ghw-simplicial rule (§8.2): a vertex whose closed neighborhood
    /// lies inside one hyperedge may go next (its bag costs 1, and
    /// removing it cannot raise the optimum).
    fn reducible(&self, eg: &EliminationGraph, _: impl FnOnce() -> u32) -> Option<Vertex> {
        eg.alive().iter().find(|&v| {
            let bag = eg.bag(v);
            self.h
                .incident_edges(v)
                .iter()
                .any(|&e| bag.is_subset(&self.h.edges()[e as usize]))
        })
    }

    /// Only the **non-adjacent** case of pruning rule 2: swapping two
    /// non-adjacent consecutive eliminations produces the identical bag
    /// *sets*, hence identical covers. (The adjacent case only preserves
    /// bag cardinalities — enough for treewidth, not for cover width.)
    fn swappable(&self, eg: &EliminationGraph, v: Vertex, u: Vertex) -> bool {
        !eg.has_edge(v, u)
    }
}

/// The common start of every exact search: the empty instance, the root
/// heuristics, and instances those already close. `Err` is the finished
/// outcome; `Ok` carries the root lower bound and the RNG, advanced past
/// the root heuristics.
pub(crate) fn prologue<E: WidthEvaluator>(
    ev: &mut E,
    cfg: &SearchConfig,
    inc: &Incumbent,
    who: &'static str,
) -> Result<(u32, StdRng), SearchOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    if ev.graph().num_vertices() == 0 {
        inc.offer_upper(0, &[]);
        return Err(outcome(inc, 0, true, SearchStats::default()));
    }
    let lb0 = ev.initial_bounds(&mut rng, |w, order| {
        offer_traced(inc, &cfg.tracer, who, w, order);
    });
    raise_traced(inc, &cfg.tracer, who, lb0);
    if lb0 >= inc.upper() {
        return Err(outcome(inc, lb0, true, SearchStats::default()));
    }
    Ok((lb0, rng))
}

/// The outcome a search reports from the incumbent: on `exact` its upper
/// bound is proven optimal, otherwise `lower` is the search's proven bound.
pub(crate) fn outcome(
    inc: &Incumbent,
    lower: u32,
    exact: bool,
    stats: SearchStats,
) -> SearchOutcome {
    if exact {
        inc.mark_exact();
    }
    let upper = inc.upper();
    SearchOutcome {
        lower: if exact { upper } else { lower.min(upper) },
        upper,
        exact,
        ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
        stats,
    }
}

/// A lower bound on the treewidth of the subgraph the alive vertices
/// induce (minor-min-width).
pub(crate) fn subgraph_tw_lb(eg: &EliminationGraph, rng: &mut StdRng) -> u32 {
    let alive = eg.to_graph().induced_subgraph(eg.alive()).0;
    minor_min_width(&alive, rng)
}
