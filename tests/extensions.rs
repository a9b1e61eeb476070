//! Integration tests for the extension subsystems: subset-DP treewidth,
//! parallel branch and bound, det-k-decomp, nice decompositions + MIS,
//! solution counting, local search, and the PACE interchange formats.

use htd::core::bucket::vertex_elimination;
use htd::core::mis::max_independent_set;
use htd::core::nice::NiceTreeDecomposition;
use htd::core::ordering::EliminationOrdering;
use htd::core::pace;
use htd::csp::{builders, count_solutions_td};
use htd::heuristics::{improve_ordering, IlsParams};
use htd::hypergraph::{gen, io};
use htd::search::astar::astar_tw;
use htd::search::{bb_tw_parallel, dp_treewidth, hypertree_width, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three independent exact treewidth algorithms agree on graphs beyond
/// brute-force reach.
#[test]
fn three_exact_treewidth_algorithms_agree() {
    for seed in 0..5u64 {
        let g = gen::random_gnp(13, 0.3, seed);
        let cfg = SearchConfig::default();
        let a = astar_tw(&g, &cfg);
        let b = bb_tw_parallel(&g, &cfg, 4);
        let c = dp_treewidth(&g);
        assert!(a.exact && b.exact);
        assert_eq!(a.upper, c, "seed {seed}: A* vs DP");
        assert_eq!(b.upper, c, "seed {seed}: parallel BB vs DP");
    }
}

/// The width hierarchy ghw ≤ hw holds with all three widths computed by
/// different engines, and the hw witness passes the 4-condition validator.
#[test]
fn width_hierarchy_on_suite_instances() {
    for (name, h) in [
        ("adder_4", gen::adder(4)),
        ("clique_7", gen::clique_hypergraph(7)),
        ("grid2d_4", gen::grid2d(4)),
    ] {
        let cfg = SearchConfig::default();
        let ghw = htd::search::bb::bb_ghw(&h, &cfg).unwrap();
        assert!(ghw.exact, "{name}");
        let (hw, hd) = hypertree_width(&h, ghw.upper).unwrap();
        hd.validate_hypertree(&h).unwrap();
        assert!(ghw.upper <= hw, "{name}: hierarchy violated");
        let tw = dp_treewidth(&h.primal_graph());
        // every bag of a TD is coverable by at most |bag| edges
        assert!(ghw.upper <= tw + 1, "{name}");
    }
}

/// Nice decomposition + MIS DP pipeline on instances with known answers.
#[test]
fn mis_via_decomposition_pipeline() {
    // queen4_4 MIS = 4 (four non-attacking queens... on 4x4 exactly 4
    // mutually non-attacking squares exist? the MIS of the queen graph is
    // the max number of non-attacking queens: 4 on a 4x4 board)
    let g = gen::queen_graph(4);
    let td = vertex_elimination(&g, &EliminationOrdering::identity(16));
    let nice = NiceTreeDecomposition::from_td(&td, 16);
    nice.validate_shape().unwrap();
    assert_eq!(max_independent_set(&g, &nice), 4);
    // grid 3x5 MIS = 8 (checkerboard)
    let g = gen::grid_graph(3, 5);
    let td = vertex_elimination(&g, &EliminationOrdering::identity(15));
    let nice = NiceTreeDecomposition::from_td(&td, 15);
    assert_eq!(max_independent_set(&g, &nice), 8);
}

/// Local search composes with the exact search: the improved ordering's
/// width is sandwiched between treewidth and the min-fill width.
#[test]
fn local_search_brackets() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::random_gnp(12, 0.3, 3);
    let mf = htd::heuristics::upper::min_fill(&g, &mut rng);
    let (improved, w) = improve_ordering(&g, &mf.ordering, &IlsParams::default(), &mut rng);
    let truth = dp_treewidth(&g);
    assert!(w <= mf.width);
    assert!(w >= truth);
    assert_eq!(improved.len(), 12);
}

/// The PACE round trip: generate → write .gr → parse → decompose →
/// write .td → parse → validate against the original graph.
#[test]
fn pace_interchange_roundtrip() {
    let g = gen::queen_graph(4);
    let gr = io::write_pace_gr(&g);
    let g2 = io::parse_pace_gr(&gr).unwrap();
    assert_eq!(g2.num_edges(), g.num_edges());
    let td = vertex_elimination(&g2, &EliminationOrdering::identity(16)).simplify();
    let td_text = pace::write_td(&td, 16);
    let td2 = pace::parse_td(&td_text).unwrap();
    td2.validate_graph(&g).unwrap();
    assert_eq!(td2.width(), td.width());
}

/// Counting agrees with the known 5-queens answer through a decomposition
/// built from a *searched* (optimal) ordering rather than a heuristic one.
#[test]
fn counting_through_optimal_ordering() {
    let csp = builders::n_queens(5);
    let h = csp.hypergraph();
    let out = astar_tw(&h.primal_graph(), &SearchConfig::default());
    assert!(out.exact);
    let td = htd::core::bucket::td_of_hypergraph(&h, out.ordering.as_ref().unwrap());
    assert_eq!(count_solutions_td(&csp, &td), 10);
}
