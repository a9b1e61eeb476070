//! Ablation A — what each pruning rule buys the exact searches.
//!
//! Runs A*-tw and BB-tw on a small exact-solvable suite under every
//! combination of {PR2, reductions, duplicate detection}, reporting nodes
//! expanded. All configurations must agree on the width (the soundness
//! property the unit tests enforce); the interesting column is the work.
//!
//! `cargo run --release -p htd-bench --bin ablation_pruning [--full]`

use htd_bench::{Scale, Table};
use htd_hypergraph::gen::named_graph;
use htd_search::astar::astar_tw;
use htd_search::bb::bb_tw;
use htd_search::SearchConfig;

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec!["queen4_4", "myciel3", "grid4", "cycle12"],
        vec!["queen5_5", "myciel4", "grid5", "grid6"],
    );

    println!("Ablation A — pruning-rule contributions (nodes expanded)\n");
    let mut t = Table::new(&[
        "Graph", "pr2", "red", "dup", "tw", "A* nodes", "A* queue", "BB nodes",
    ]);
    for name in &names {
        let g = named_graph(name).expect("suite instance");
        for pr2 in [false, true] {
            for red in [false, true] {
                for dup in [false, true] {
                    let mut cfg = SearchConfig::budgeted(10_000_000);
                    cfg.use_pr2 = pr2;
                    cfg.use_reductions = red;
                    cfg.use_duplicate_detection = dup;
                    let a = astar_tw(&g, &cfg);
                    let b = bb_tw(&g, &cfg);
                    assert!(a.exact && b.exact, "{name}: budget too small");
                    assert_eq!(a.upper, b.upper, "{name}: solver mismatch");
                    t.row(vec![
                        name.to_string(),
                        on_off(pr2),
                        on_off(red),
                        on_off(dup),
                        a.upper.to_string(),
                        a.stats.expanded.to_string(),
                        a.stats.max_queue.to_string(),
                        b.stats.expanded.to_string(),
                    ]);
                }
            }
        }
    }
    t.print();
}

fn on_off(b: bool) -> String {
    if b { "on" } else { "off" }.to_string()
}
