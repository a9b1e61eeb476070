//! Dynamic programming over vertex subsets for treewidth (the
//! Bodlaender–Fomin–Koster–Kratsch–Thilikos "BT" recurrence).
//!
//! `opt(S)` — the minimum over orderings eliminating exactly the set `S`
//! first of the maximum degree met — satisfies
//!
//! ```text
//! opt(S) = min over v ∈ S of max( opt(S \ {v}),  |Q(S \ {v}, v)| )
//! ```
//!
//! where `Q(R, v)` is the set of vertices outside `R ∪ {v}` reachable from
//! `v` through `R` — exactly the degree of `v` after eliminating `R`.
//! A breadth-first sweep over subset lattice layers gives the treewidth in
//! `O(2^n · n²)` time and `O(2^n)` space: the exact baseline the
//! branch-and-bound searches are validated against for `n` up to ~20,
//! far beyond the `n ≤ 8` reach of factorial enumeration.

use std::collections::HashMap;

use htd_core::error::HtdError;
use htd_hypergraph::Graph;

use crate::config::SearchConfig;

/// Exact treewidth by subset dynamic programming. Practical to `n ≈ 20`.
///
/// ```
/// use htd_search::dp_treewidth;
/// use htd_hypergraph::gen;
/// assert_eq!(dp_treewidth(&gen::cycle_graph(12)), 2);
/// assert_eq!(dp_treewidth(&gen::complete_graph(9)), 8);
/// ```
///
/// # Panics
///
/// Panics when `g` has more than 30 vertices (the table would not fit).
pub fn dp_treewidth(g: &Graph) -> u32 {
    let n = g.num_vertices();
    assert!(n <= 30, "subset DP needs 2^n table entries");
    if n == 0 {
        return 0;
    }
    // adjacency as u32 masks for speed
    let adj: Vec<u32> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0u32, |m, u| m | (1 << u)))
        .collect();
    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
    // layer-by-layer over subset sizes; opt maps subset -> width
    let mut layer: HashMap<u32, u32> = HashMap::new();
    layer.insert(0, 0);
    let mut states: u64 = 1;
    for _size in 0..n {
        let mut next: HashMap<u32, u32> = HashMap::new();
        for (&s, &w) in &layer {
            let remaining = full & !s;
            let mut m = remaining;
            while m != 0 {
                let v = m.trailing_zeros();
                m &= m - 1;
                let deg = q_degree(&adj, s, v, full);
                let cand = w.max(deg);
                let ns = s | (1 << v);
                match next.get_mut(&ns) {
                    Some(best) => {
                        if cand < *best {
                            *best = cand;
                        }
                    }
                    None => {
                        next.insert(ns, cand);
                    }
                }
            }
        }
        layer = next;
        states += layer.len() as u64;
    }
    htd_trace::registry()
        .counter("htd_dp_tw_states_total")
        .add(states);
    layer[&full]
}

/// [`dp_treewidth`] under `cfg.memory_budget`: an all-or-nothing consumer
/// that refuses *upfront* when its table estimate does not fit, instead of
/// dying mid-layer. Without a budget it behaves exactly like
/// [`dp_treewidth`].
///
/// The estimate is the peak of the layered table — the two largest
/// adjacent subset layers, `C(n, ⌊n/2⌋)` entries each at ~16 bytes per
/// hash-map slot. Refusals return [`HtdError::ResourceExhausted`] with
/// the estimate, so callers can report "needs N MiB" and fall back to the
/// anytime engines.
pub fn dp_treewidth_budgeted(g: &Graph, cfg: &SearchConfig) -> Result<u32, HtdError> {
    let n = g.num_vertices();
    if n > 30 {
        return Err(HtdError::ResourceExhausted(format!(
            "subset DP needs 2^{n} table entries; practical only to n = 30"
        )));
    }
    if let Some(budget) = &cfg.memory_budget {
        let estimate = dp_table_estimate(n as usize);
        // charge-then-release keeps the accounting exact even when a
        // concurrent consumer races the reservation
        if !budget.charge(estimate) {
            budget.release(estimate);
            return Err(HtdError::ResourceExhausted(format!(
                "subset DP on {n} vertices needs ~{} MiB of table, over the {} MiB budget",
                estimate >> 20,
                budget.limit() >> 20
            )));
        }
        let w = dp_treewidth(g);
        budget.release(estimate);
        return Ok(w);
    }
    Ok(dp_treewidth(g))
}

/// Peak retained bytes of the layered DP: the two largest adjacent subset
/// layers at ~16 bytes per `u32 → u32` hash-map entry.
fn dp_table_estimate(n: usize) -> u64 {
    // C(n, n/2) without overflow for n ≤ 30
    let mut binom: u64 = 1;
    for k in 0..(n / 2) {
        binom = binom * (n as u64 - k as u64) / (k as u64 + 1);
    }
    2 * binom * 16
}

/// `|Q(S, v)|`: neighbors of the component of `v` in `S ∪ {v}` that lie
/// outside `S ∪ {v}` — the degree of `v` once `S` is eliminated.
fn q_degree(adj: &[u32], s: u32, v: u32, full: u32) -> u32 {
    let sv = s | (1 << v);
    // flood from v through S
    let mut comp = 1u32 << v;
    let mut frontier = comp;
    while frontier != 0 {
        let mut reach = 0u32;
        let mut m = frontier;
        while m != 0 {
            let u = m.trailing_zeros();
            m &= m - 1;
            reach |= adj[u as usize];
        }
        frontier = reach & s & !comp;
        comp |= frontier;
    }
    // outside neighbors of the component
    let mut out = 0u32;
    let mut m = comp;
    while m != 0 {
        let u = m.trailing_zeros();
        m &= m - 1;
        out |= adj[u as usize];
    }
    (out & full & !sv).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::gen;

    #[test]
    fn known_families() {
        assert_eq!(dp_treewidth(&gen::path_graph(10)), 1);
        assert_eq!(dp_treewidth(&gen::cycle_graph(10)), 2);
        assert_eq!(dp_treewidth(&gen::complete_graph(8)), 7);
        assert_eq!(dp_treewidth(&gen::grid_graph(3, 3)), 3);
        assert_eq!(dp_treewidth(&gen::grid_graph(4, 4)), 4);
        assert_eq!(dp_treewidth(&gen::grid_graph(4, 5)), 4);
        assert_eq!(dp_treewidth(&Graph::new(5)), 0);
        assert_eq!(dp_treewidth(&Graph::new(0)), 0);
    }

    #[test]
    fn matches_exhaustive_enumeration() {
        for seed in 0..15u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            assert_eq!(dp_treewidth(&g), exhaustive_tw(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_branch_and_bound_beyond_exhaustive_reach() {
        use crate::bb::bb_tw;
        use crate::SearchConfig;
        for seed in 0..6u64 {
            let g = gen::random_gnp(14, 0.25, seed);
            let bb = bb_tw(&g, &SearchConfig::default());
            assert!(bb.exact);
            assert_eq!(dp_treewidth(&g), bb.upper, "seed {seed}");
        }
    }

    #[test]
    fn ktrees_have_width_k() {
        for k in 2..5u32 {
            let g = gen::random_ktree(15, k, k as u64 + 7);
            assert_eq!(dp_treewidth(&g), k);
        }
    }

    #[test]
    fn budgeted_dp_refuses_upfront_and_runs_when_it_fits() {
        let g = gen::grid_graph(4, 4);
        // no budget: same as the plain entry point
        assert_eq!(
            dp_treewidth_budgeted(&g, &SearchConfig::default()).unwrap(),
            4
        );
        // roomy budget: runs, and releases its reservation afterwards
        let cfg = SearchConfig::default().with_memory_budget(64 << 20);
        assert_eq!(dp_treewidth_budgeted(&g, &cfg).unwrap(), 4);
        let b = cfg.memory_budget.as_ref().unwrap();
        assert_eq!(b.used(), 0, "reservation released");
        assert!(!b.exceeded());
        // starved budget: refuses upfront with an estimate, computes nothing
        let tiny = SearchConfig::default().with_memory_budget(1024);
        let err = dp_treewidth_budgeted(&g, &tiny).unwrap_err();
        assert!(matches!(err, HtdError::ResourceExhausted(_)), "{err}");
        // oversize instances refuse rather than panic
        let big = gen::path_graph(31);
        assert!(matches!(
            dp_treewidth_budgeted(&big, &SearchConfig::default()),
            Err(HtdError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn disconnected_graph() {
        // two triangles
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(dp_treewidth(&g), 2);
    }
}
