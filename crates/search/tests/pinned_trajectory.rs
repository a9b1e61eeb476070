//! Pinned search trajectories of the exact engines.
//!
//! Each case runs branch and bound or A* — for treewidth or generalized
//! hypertree width — through the engine registry at a fixed seed, and
//! asserts `(lower, upper, exact, expanded)`. The expansion count is a
//! fingerprint of the whole search trajectory (node order, every pruning
//! decision, every RNG draw), so any refactoring of the search code that
//! keeps these numbers keeps the searches themselves.

use std::sync::Arc;

use htd_hypergraph::gen;
use htd_search::{Engine, EngineContext, Incumbent, Problem, SearchConfig};
use htd_setcover::CoverCache;

/// `(lower, upper, exact, stats.expanded)` of one run.
type Trajectory = (u32, u32, bool, u64);

/// Runs one registered engine alone, exactly as the engine function would
/// run when called directly with `cfg`.
fn run(engine: Engine, problem: &Problem, cfg: &SearchConfig) -> Trajectory {
    let spec = engine.spec().expect("builtin engine");
    let ctx = EngineContext {
        problem,
        cfg,
        inc: &Arc::new(Incumbent::new()),
        greedy_cache: &Arc::new(CoverCache::new()),
        pool_threads: 1,
    };
    let report = spec.run(&ctx);
    (
        report.lower,
        report.upper,
        report.exact,
        report.stats.expanded,
    )
}

fn tw_cases() -> Vec<(String, Problem)> {
    let mut cases = vec![
        ("queen5".to_string(), gen::queen_graph(5)),
        ("grid4x4".to_string(), gen::grid_graph(4, 4)),
    ];
    for seed in 20..24 {
        cases.push((format!("gnp10_{seed}"), gen::random_gnp(10, 0.3, seed)));
    }
    // instances the initial bounds do not close, so every toggle matters
    cases.push(("gnp14_3".to_string(), gen::random_gnp(14, 0.5, 3)));
    cases.push(("hypercube4".to_string(), gen::hypercube(4)));
    cases.push(("myciel4".to_string(), gen::myciel(4)));
    cases
        .into_iter()
        .map(|(name, g)| (name, Problem::treewidth(g)))
        .collect()
}

fn ghw_cases() -> Vec<(String, Problem)> {
    let mut cases = vec![
        ("clique6".to_string(), gen::clique_hypergraph(6)),
        ("adder3".to_string(), gen::adder(3)),
        ("grid2d6".to_string(), gen::grid2d(6)),
    ];
    for seed in 10..14 {
        cases.push((
            format!("uniform8_{seed}"),
            gen::random_uniform(8, 9, 3, seed),
        ));
    }
    cases.push(("uniform12_2".to_string(), gen::random_uniform(12, 14, 3, 2)));
    cases.push(("uniform10_3".to_string(), gen::random_uniform(10, 12, 3, 3)));
    cases
        .into_iter()
        .filter(|(_, h)| h.covers_all_vertices())
        .map(|(name, h)| (name, Problem::ghw(h)))
        .collect()
}

/// Every (engine, instance, configuration) run, labelled for the table.
fn trajectories() -> Vec<(String, Trajectory)> {
    let configs = [
        ("full", SearchConfig::default()),
        ("b30", SearchConfig::budgeted(30)),
        (
            "nopr2",
            SearchConfig {
                use_pr2: false,
                ..SearchConfig::budgeted(2000)
            },
        ),
        ("bare", SearchConfig::budgeted(500).without_pruning()),
    ];
    let mut out = Vec::new();
    for (objective, cases) in [("tw", tw_cases()), ("ghw", ghw_cases())] {
        for (name, problem) in &cases {
            for engine in [Engine::BranchBound, Engine::AStar] {
                for (config, cfg) in &configs {
                    let label = format!("{}/{objective}/{name}/{config}", engine.name());
                    out.push((label, run(engine, problem, cfg)));
                }
            }
        }
    }
    out
}

/// `(label, trajectory)`, recorded before the tw and
/// ghw engines were merged into one generic search core.
const PINNED: &[(&str, Trajectory)] = &[
    ("branch_bound/tw/queen5/full", (18, 18, true, 2459)),
    ("branch_bound/tw/queen5/b30", (12, 18, false, 31)),
    ("branch_bound/tw/queen5/nopr2", (12, 18, false, 2001)),
    ("branch_bound/tw/queen5/bare", (12, 18, false, 501)),
    ("astar/tw/queen5/full", (18, 18, true, 1175)),
    ("astar/tw/queen5/b30", (15, 18, false, 30)),
    ("astar/tw/queen5/nopr2", (18, 18, true, 1368)),
    ("astar/tw/queen5/bare", (16, 18, false, 500)),
    ("branch_bound/tw/grid4x4/full", (4, 4, true, 0)),
    ("branch_bound/tw/grid4x4/b30", (4, 4, true, 0)),
    ("branch_bound/tw/grid4x4/nopr2", (4, 4, true, 0)),
    ("branch_bound/tw/grid4x4/bare", (4, 4, true, 0)),
    ("astar/tw/grid4x4/full", (4, 4, true, 0)),
    ("astar/tw/grid4x4/b30", (4, 4, true, 0)),
    ("astar/tw/grid4x4/nopr2", (4, 4, true, 0)),
    ("astar/tw/grid4x4/bare", (4, 4, true, 0)),
    ("branch_bound/tw/gnp10_20/full", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_20/b30", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_20/nopr2", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_20/bare", (3, 3, true, 0)),
    ("astar/tw/gnp10_20/full", (3, 3, true, 0)),
    ("astar/tw/gnp10_20/b30", (3, 3, true, 0)),
    ("astar/tw/gnp10_20/nopr2", (3, 3, true, 0)),
    ("astar/tw/gnp10_20/bare", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_21/full", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_21/b30", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_21/nopr2", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_21/bare", (2, 2, true, 0)),
    ("astar/tw/gnp10_21/full", (2, 2, true, 0)),
    ("astar/tw/gnp10_21/b30", (2, 2, true, 0)),
    ("astar/tw/gnp10_21/nopr2", (2, 2, true, 0)),
    ("astar/tw/gnp10_21/bare", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_22/full", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_22/b30", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_22/nopr2", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_22/bare", (2, 2, true, 0)),
    ("astar/tw/gnp10_22/full", (2, 2, true, 0)),
    ("astar/tw/gnp10_22/b30", (2, 2, true, 0)),
    ("astar/tw/gnp10_22/nopr2", (2, 2, true, 0)),
    ("astar/tw/gnp10_22/bare", (2, 2, true, 0)),
    ("branch_bound/tw/gnp10_23/full", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_23/b30", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_23/nopr2", (3, 3, true, 0)),
    ("branch_bound/tw/gnp10_23/bare", (3, 3, true, 0)),
    ("astar/tw/gnp10_23/full", (3, 3, true, 0)),
    ("astar/tw/gnp10_23/b30", (3, 3, true, 0)),
    ("astar/tw/gnp10_23/nopr2", (3, 3, true, 0)),
    ("astar/tw/gnp10_23/bare", (3, 3, true, 0)),
    ("branch_bound/tw/gnp14_3/full", (8, 8, true, 23)),
    ("branch_bound/tw/gnp14_3/b30", (8, 8, true, 23)),
    ("branch_bound/tw/gnp14_3/nopr2", (8, 8, true, 58)),
    ("branch_bound/tw/gnp14_3/bare", (8, 8, true, 62)),
    ("astar/tw/gnp14_3/full", (8, 8, true, 9)),
    ("astar/tw/gnp14_3/b30", (8, 8, true, 9)),
    ("astar/tw/gnp14_3/nopr2", (8, 8, true, 13)),
    ("astar/tw/gnp14_3/bare", (8, 8, true, 7)),
    ("branch_bound/tw/hypercube4/full", (6, 6, true, 314)),
    ("branch_bound/tw/hypercube4/b30", (5, 6, false, 31)),
    ("branch_bound/tw/hypercube4/nopr2", (5, 6, false, 2001)),
    ("branch_bound/tw/hypercube4/bare", (5, 6, false, 501)),
    ("astar/tw/hypercube4/full", (6, 6, true, 122)),
    ("astar/tw/hypercube4/b30", (5, 6, false, 30)),
    ("astar/tw/hypercube4/nopr2", (6, 6, true, 200)),
    ("astar/tw/hypercube4/bare", (6, 6, true, 445)),
    ("branch_bound/tw/myciel4/full", (10, 10, true, 2655)),
    ("branch_bound/tw/myciel4/b30", (8, 11, false, 31)),
    ("branch_bound/tw/myciel4/nopr2", (8, 10, false, 2001)),
    ("branch_bound/tw/myciel4/bare", (8, 10, false, 501)),
    ("astar/tw/myciel4/full", (10, 10, true, 208)),
    ("astar/tw/myciel4/b30", (9, 11, false, 30)),
    ("astar/tw/myciel4/nopr2", (10, 10, true, 250)),
    ("astar/tw/myciel4/bare", (9, 11, false, 500)),
    ("branch_bound/ghw/clique6/full", (3, 3, true, 0)),
    ("branch_bound/ghw/clique6/b30", (3, 3, true, 0)),
    ("branch_bound/ghw/clique6/nopr2", (3, 3, true, 0)),
    ("branch_bound/ghw/clique6/bare", (3, 3, true, 0)),
    ("astar/ghw/clique6/full", (3, 3, true, 0)),
    ("astar/ghw/clique6/b30", (3, 3, true, 0)),
    ("astar/ghw/clique6/nopr2", (3, 3, true, 0)),
    ("astar/ghw/clique6/bare", (3, 3, true, 0)),
    ("branch_bound/ghw/adder3/full", (2, 2, true, 0)),
    ("branch_bound/ghw/adder3/b30", (2, 2, true, 0)),
    ("branch_bound/ghw/adder3/nopr2", (2, 2, true, 0)),
    ("branch_bound/ghw/adder3/bare", (2, 2, true, 0)),
    ("astar/ghw/adder3/full", (2, 2, true, 0)),
    ("astar/ghw/adder3/b30", (2, 2, true, 0)),
    ("astar/ghw/adder3/nopr2", (2, 2, true, 0)),
    ("astar/ghw/adder3/bare", (2, 2, true, 0)),
    ("branch_bound/ghw/grid2d6/full", (3, 3, true, 3795)),
    ("branch_bound/ghw/grid2d6/b30", (2, 3, false, 31)),
    ("branch_bound/ghw/grid2d6/nopr2", (2, 3, false, 2001)),
    ("branch_bound/ghw/grid2d6/bare", (2, 3, false, 501)),
    ("astar/ghw/grid2d6/full", (3, 3, true, 906)),
    ("astar/ghw/grid2d6/b30", (2, 3, false, 30)),
    ("astar/ghw/grid2d6/nopr2", (3, 3, true, 906)),
    ("astar/ghw/grid2d6/bare", (2, 3, false, 500)),
    ("branch_bound/ghw/uniform8_10/full", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_10/b30", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_10/nopr2", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_10/bare", (2, 2, true, 0)),
    ("astar/ghw/uniform8_10/full", (2, 2, true, 0)),
    ("astar/ghw/uniform8_10/b30", (2, 2, true, 0)),
    ("astar/ghw/uniform8_10/nopr2", (2, 2, true, 0)),
    ("astar/ghw/uniform8_10/bare", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_11/full", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_11/b30", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_11/nopr2", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_11/bare", (2, 2, true, 0)),
    ("astar/ghw/uniform8_11/full", (2, 2, true, 0)),
    ("astar/ghw/uniform8_11/b30", (2, 2, true, 0)),
    ("astar/ghw/uniform8_11/nopr2", (2, 2, true, 0)),
    ("astar/ghw/uniform8_11/bare", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_12/full", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_12/b30", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_12/nopr2", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_12/bare", (2, 2, true, 0)),
    ("astar/ghw/uniform8_12/full", (2, 2, true, 0)),
    ("astar/ghw/uniform8_12/b30", (2, 2, true, 0)),
    ("astar/ghw/uniform8_12/nopr2", (2, 2, true, 0)),
    ("astar/ghw/uniform8_12/bare", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_13/full", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_13/b30", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_13/nopr2", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform8_13/bare", (2, 2, true, 0)),
    ("astar/ghw/uniform8_13/full", (2, 2, true, 0)),
    ("astar/ghw/uniform8_13/b30", (2, 2, true, 0)),
    ("astar/ghw/uniform8_13/nopr2", (2, 2, true, 0)),
    ("astar/ghw/uniform8_13/bare", (2, 2, true, 0)),
    ("branch_bound/ghw/uniform12_2/full", (3, 3, true, 69)),
    ("branch_bound/ghw/uniform12_2/b30", (2, 3, false, 31)),
    ("branch_bound/ghw/uniform12_2/nopr2", (3, 3, true, 476)),
    ("branch_bound/ghw/uniform12_2/bare", (2, 3, false, 501)),
    ("astar/ghw/uniform12_2/full", (3, 3, true, 39)),
    ("astar/ghw/uniform12_2/b30", (2, 3, false, 30)),
    ("astar/ghw/uniform12_2/nopr2", (3, 3, true, 39)),
    ("astar/ghw/uniform12_2/bare", (2, 3, false, 500)),
    ("branch_bound/ghw/uniform10_3/full", (3, 3, true, 8)),
    ("branch_bound/ghw/uniform10_3/b30", (3, 3, true, 8)),
    ("branch_bound/ghw/uniform10_3/nopr2", (3, 3, true, 12)),
    ("branch_bound/ghw/uniform10_3/bare", (3, 3, true, 12)),
    ("astar/ghw/uniform10_3/full", (3, 3, true, 8)),
    ("astar/ghw/uniform10_3/b30", (3, 3, true, 8)),
    ("astar/ghw/uniform10_3/nopr2", (3, 3, true, 8)),
    ("astar/ghw/uniform10_3/bare", (3, 3, true, 12)),
];

#[test]
fn exact_engines_follow_their_pinned_trajectories() {
    let got = trajectories();
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|((label, t), (pinned_label, pinned))| label != pinned_label || t != pinned)
        .map(|((label, t), (_, pinned))| format!("{label}: got {t:?}, pinned {pinned:?}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!(got.len(), PINNED.len(), "case list changed");
}
