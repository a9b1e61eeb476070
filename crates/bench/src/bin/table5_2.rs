//! Table 5.2 — A*-tw on n×n grid graphs (treewidth of the n×n grid is n).
//!
//! `cargo run --release -p htd-bench --bin table5_2 [--full]`

use htd_bench::{secs, Scale, Table};
use htd_heuristics::{combined_lower_bound, upper::min_fill};
use htd_hypergraph::gen::grid_graph;
use htd_search::astar::astar_tw;
use htd_search::SearchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let max_n = scale.pick(5, 8);
    let budget = scale.pick(300_000, 5_000_000);
    let time_limit = scale.pick(
        std::time::Duration::from_secs(10),
        std::time::Duration::from_secs(120),
    );

    println!("Table 5.2 — A*-tw on grid graphs (tw(n×n grid) = n)\n");
    let mut t = Table::new(&["Graph", "V", "E", "lb", "ub", "A*-tw", "exact", "time[s]"]);
    for n in 2..=max_n {
        let g = grid_graph(n, n);
        let mut rng = StdRng::seed_from_u64(1);
        let lb = combined_lower_bound(&g, &mut rng);
        let ub = min_fill(&g, &mut rng).width;
        let cfg = SearchConfig::budgeted(budget).with_time_limit(time_limit);
        let out = astar_tw(&g, &cfg);
        t.row(vec![
            format!("grid{n}"),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            lb.to_string(),
            ub.to_string(),
            if out.exact {
                out.upper.to_string()
            } else {
                format!("≥{}", out.lower)
            },
            if out.exact { "yes" } else { "*" }.to_string(),
            secs(out.stats.elapsed),
        ]);
    }
    t.print();
}
