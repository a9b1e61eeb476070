//! Cross-crate integration tests: full pipelines from instance generation
//! through heuristics, exact search, decomposition construction,
//! validation, and CSP solving.

use htd::core::bucket::{ghd_via_elimination, td_of_hypergraph};
use htd::core::ordering::{exhaustive_ghw, exhaustive_tw};
use htd::core::{CoverStrategy, GhwEvaluator, TwEvaluator};
use htd::csp::builders;
use htd::ga::{ga_ghw, ga_tw, saiga_ghw, GaParams, SaigaParams};
use htd::heuristics::upper::min_fill;
use htd::hypergraph::gen;
use htd::search::astar::{astar_ghw, astar_tw};
use htd::search::bb::{bb_ghw, bb_tw};
use htd::search::SearchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every width-producing component of the workspace must bracket the true
/// treewidth consistently: lower bounds ≤ tw ≤ heuristics/GA widths, and
/// the exact searches hit tw.
#[test]
fn all_treewidth_components_agree_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(2024);
    for seed in 0..6u64 {
        let g = gen::random_gnp(8, 0.35, seed);
        let truth = exhaustive_tw(&g);
        // heuristic upper bounds
        let mf = min_fill(&g, &mut rng);
        assert!(mf.width >= truth);
        // minor lower bounds
        assert!(htd::heuristics::combined_lower_bound(&g, &mut rng) <= truth);
        // exact searches
        let cfg = SearchConfig::default();
        assert_eq!(astar_tw(&g, &cfg).exact_width(), Some(truth), "seed {seed}");
        assert_eq!(bb_tw(&g, &cfg).exact_width(), Some(truth), "seed {seed}");
        // GA
        let params = GaParams {
            population: 24,
            generations: 40,
            ..GaParams::default()
        };
        assert!(ga_tw(&g, &params, &mut rng).width >= truth);
    }
}

/// The same bracketing for generalized hypertree width.
#[test]
fn all_ghw_components_agree_on_random_hypergraphs() {
    let mut rng = StdRng::seed_from_u64(7);
    for seed in 0..5u64 {
        let h = gen::random_uniform(7, 8, 3, seed);
        if !h.covers_all_vertices() {
            continue;
        }
        let truth = exhaustive_ghw(&h).unwrap();
        assert!(htd::heuristics::ghw_lower_bound(&h, &mut rng) <= truth);
        let cfg = SearchConfig::default();
        assert_eq!(bb_ghw(&h, &cfg).unwrap().exact_width(), Some(truth));
        assert_eq!(astar_ghw(&h, &cfg).unwrap().exact_width(), Some(truth));
        let params = GaParams {
            population: 24,
            generations: 40,
            ..GaParams::default()
        };
        assert!(ga_ghw(&h, &params, &mut rng).unwrap().width >= truth);
        let sp = SaigaParams {
            islands: 2,
            island_population: 12,
            epoch_generations: 8,
            epochs: 3,
            ..SaigaParams::default()
        };
        assert!(saiga_ghw(&h, &sp).unwrap().width >= truth);
    }
}

/// The searched ordering materializes into a *valid* decomposition whose
/// width matches the search's answer.
#[test]
fn search_orderings_materialize_into_valid_decompositions() {
    let cfg = SearchConfig::default();
    // treewidth on the thesis example's primal graph
    let h = htd::hypergraph::Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
    let g = h.primal_graph();
    let out = astar_tw(&g, &cfg);
    let order = out.ordering.clone().unwrap();
    let td = td_of_hypergraph(&h, &order);
    td.validate(&h).unwrap();
    assert_eq!(td.width(), out.upper);

    // ghw
    let out = bb_ghw(&h, &cfg).unwrap();
    assert!(out.exact);
    assert_eq!(out.upper, 2);
    let ghd =
        ghd_via_elimination(&h, out.ordering.as_ref().unwrap(), CoverStrategy::Exact).unwrap();
    ghd.validate(&h).unwrap();
    assert!(ghd.width() <= out.upper);
    let complete = ghd.complete(&h);
    assert!(complete.is_complete(&h));
    complete.validate(&h).unwrap();
}

/// End-to-end CSP: build n-queens, decompose, solve three ways, and check
/// the solutions against the model.
#[test]
fn n_queens_via_decompositions() {
    let csp = builders::n_queens(6);
    let h = csp.hypergraph();
    let mut rng = StdRng::seed_from_u64(5);
    let order = min_fill(&h.primal_graph(), &mut rng).ordering;
    let td = td_of_hypergraph(&h, &order);
    let sol = htd::csp::solve_with_td(&csp, &td).expect("6-queens solvable");
    assert!(csp.is_solution(&sol));
    let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).unwrap();
    let sol = htd::csp::solve_with_ghd(&csp, &ghd).expect("6-queens solvable");
    assert!(csp.is_solution(&sol));
    assert!(htd::csp::backtrack_solve(&csp).solution.is_some());
}

/// The benchmark suite generates, decomposes and validates cleanly at
/// small scale — the invariant behind every table binary.
#[test]
fn benchmark_suite_instances_decompose_and_validate() {
    let mut rng = StdRng::seed_from_u64(3);
    for (name, h) in [
        ("adder_5", gen::adder(5)),
        ("bridge_4", gen::bridge(4)),
        ("grid2d_5", gen::grid2d(5)),
        ("grid3d_3", gen::grid3d(3)),
        ("clique_8", gen::clique_hypergraph(8)),
    ] {
        assert!(h.covers_all_vertices(), "{name}");
        let order = min_fill(&h.primal_graph(), &mut rng).ordering;
        let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact)
            .unwrap_or_else(|| panic!("{name} uncoverable"));
        ghd.validate(&h).unwrap_or_else(|e| panic!("{name}: {e}"));
        // evaluator agrees with materialized decomposition
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        assert_eq!(ev.width(order.as_slice()).unwrap(), ghd.width(), "{name}");
    }
}

/// Known exact widths of the paper's structured families.
#[test]
fn known_widths_of_structured_families() {
    let cfg = SearchConfig::default();
    // Table 5.1/5.2 anchors
    assert_eq!(astar_tw(&gen::queen_graph(5), &cfg).exact_width(), Some(18));
    assert_eq!(
        astar_tw(&gen::grid_graph(5, 5), &cfg).exact_width(),
        Some(5)
    );
    assert_eq!(astar_tw(&gen::myciel(3), &cfg).exact_width(), Some(5));
    // ghw anchors: clique_k has ghw ⌈k/2⌉; adder chains have ghw 2
    assert_eq!(
        bb_ghw(&gen::clique_hypergraph(8), &cfg)
            .unwrap()
            .exact_width(),
        Some(4)
    );
    let adder = bb_ghw(&gen::adder(4), &cfg).unwrap();
    assert!(
        adder.exact && adder.upper <= 2,
        "adder ghw = {}",
        adder.upper
    );
}

/// GA-tw and the exact searches cross-validate on a mid-size instance.
#[test]
fn ga_matches_exact_on_queen5() {
    let g = gen::queen_graph(5);
    let mut rng = StdRng::seed_from_u64(11);
    let params = GaParams {
        population: 80,
        generations: 150,
        ..GaParams::default()
    };
    let ga = ga_tw(&g, &params, &mut rng);
    assert!(ga.width >= 18);
    // the GA ordering evaluates consistently
    let mut ev = TwEvaluator::new(&g);
    assert_eq!(ev.width(ga.ordering.as_slice()), ga.width);
}
