//! Parallel branch and bound for treewidth.
//!
//! The depth-first search of [`bb_tw`](crate::bb::bb_tw) parallelizes at the
//! root: each first-eliminated vertex spawns an independent subtree, and
//! all workers share one [`Incumbent`](crate::Incumbent), so a good
//! solution found by one immediately tightens every other worker's
//! pruning. Workers never block each other (the ordering behind the
//! incumbent is guarded separately from the atomic bound), so this is the
//! textbook shared-bound parallel B&B — and the same `Incumbent` type the
//! portfolio solver uses across heterogeneous engines. Each worker runs
//! the generic DFS of [`bb`](crate::bb) over its share of the root's
//! children.

use std::sync::Arc;

use htd_heuristics::reduce;
use htd_hypergraph::{EliminationGraph, Graph, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bb::Dfs;
use crate::config::{SearchConfig, SearchOutcome, SearchStats};
use crate::width::{outcome, prologue, TwWidth};

const WHO: &str = "parallel_bb";

/// Parallel BB-tw across `threads` workers. Semantics match
/// [`bb_tw`](crate::bb::bb_tw): exact within budget (the node budget applies
/// per worker), anytime bounds otherwise. The PR2 toggle is ignored here —
/// its sibling-branch bookkeeping does not cross worker boundaries — so
/// workers prune with PR1, reductions and the shared incumbent only.
pub fn bb_tw_parallel(g: &Graph, cfg: &SearchConfig, threads: usize) -> SearchOutcome {
    let n = g.num_vertices();
    if n == 0 || threads <= 1 {
        return crate::bb::bb_tw(g, cfg);
    }
    let inc = cfg.incumbent();
    let lb0 = match prologue(&mut TwWidth::new(g), cfg, &inc, WHO) {
        Ok((lb0, _)) => lb0,
        Err(done) => return done,
    };
    // each worker's budget must observe the shared incumbent's cancel flag
    let worker_cfg = SearchConfig {
        shared: Some(Arc::clone(&inc)),
        use_pr2: false,
        ..cfg.clone()
    };

    // root children: reduction-forced single child or all vertices
    let base = EliminationGraph::new(g);
    let roots: Vec<Vertex> = if cfg.use_reductions {
        match reduce::find_reducible(&base, lb0) {
            Some(v) => vec![v],
            None => (0..n).collect(),
        }
    } else {
        (0..n).collect()
    };
    // round-robin chunks so heavy subtrees spread across workers
    let chunks: Vec<Vec<Vertex>> = (0..threads)
        .map(|t| {
            roots
                .iter()
                .copied()
                .skip(t)
                .step_by(threads)
                .collect::<Vec<_>>()
        })
        .filter(|c| !c.is_empty())
        .collect();

    let start = std::time::Instant::now();
    let results: Vec<(bool, SearchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(t, chunk)| {
                let inc = &inc;
                let worker_cfg = &worker_cfg;
                scope.spawn(move || {
                    let rng = StdRng::seed_from_u64(cfg.seed ^ ((t as u64) << 32));
                    let mut dfs = Dfs::new(TwWidth::new(g), worker_cfg, inc, WHO, lb0, rng);
                    (dfs.branch(0, chunk, false, None), dfs.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            // a panicked worker abandons its subtrees: its chunk counts as
            // not-completed, so exactness is never claimed past the hole
            .map(|h| h.join().unwrap_or((false, SearchStats::default())))
            .collect()
    });

    let exact = results.iter().all(|(done, _)| *done) || inc.is_exact();
    let mut stats = SearchStats::default();
    for (_, s) in &results {
        stats.expanded += s.expanded;
        stats.generated += s.generated;
        stats.pruned += s.pruned;
    }
    stats.elapsed = start.elapsed();
    outcome(&inc, inc.lower(), exact, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_hypergraph::gen;

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..8u64 {
            let g = gen::random_gnp(10, 0.35, seed);
            let cfg = SearchConfig::default();
            let seq = crate::bb::bb_tw(&g, &cfg);
            for threads in [2usize, 4] {
                let par = bb_tw_parallel(&g, &cfg, threads);
                assert!(par.exact, "seed {seed} threads {threads}");
                assert_eq!(par.upper, seq.upper, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn queen5_parallel() {
        let g = gen::queen_graph(5);
        let out = bb_tw_parallel(&g, &SearchConfig::default(), 4);
        assert!(out.exact);
        assert_eq!(out.upper, 18);
        // the reported ordering achieves the bound
        let mut ev = htd_core::ordering::TwEvaluator::new(&g);
        assert!(ev.width(out.ordering.unwrap().as_slice()) <= 18);
    }

    #[test]
    fn single_thread_delegates() {
        let g = gen::cycle_graph(8);
        let out = bb_tw_parallel(&g, &SearchConfig::default(), 1);
        assert!(out.exact);
        assert_eq!(out.upper, 2);
    }

    #[test]
    fn budget_exhaustion_still_bounds() {
        let g = gen::queen_graph(6);
        let out = bb_tw_parallel(&g, &SearchConfig::budgeted(30), 4);
        assert!(out.lower <= 25 && out.upper >= 25);
    }

    #[test]
    fn external_cancellation_stops_workers() {
        use std::time::{Duration, Instant};
        let g = gen::queen_graph(7);
        let inc = Arc::new(crate::Incumbent::new());
        let cfg = SearchConfig {
            shared: Some(Arc::clone(&inc)),
            ..SearchConfig::default()
        };
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| bb_tw_parallel(&g, &cfg, 4));
            std::thread::sleep(Duration::from_millis(50));
            inc.cancel();
            let out = handle.join().expect("solver");
            assert!(out.lower <= out.upper);
        });
        assert!(
            t0.elapsed() < Duration::from_millis(50 + 500),
            "workers did not stop promptly: {:?}",
            t0.elapsed()
        );
    }
}
