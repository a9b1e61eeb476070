//! The width hierarchy on one hypergraph: ghw ≤ hw ≤ (roughly) tw,
//! with the witness decompositions rendered as Graphviz DOT.
//!
//! ```sh
//! cargo run --release --example width_hierarchy
//! ```

use htd::core::bucket::td_of_hypergraph;
use htd::core::dot::{ghd_to_dot, tree_decomposition_to_dot};
use htd::hypergraph::gen;
use htd::search::astar::astar_tw;
use htd::search::bb::bb_ghw;
use htd::search::{hypertree_width, SearchConfig};

fn main() {
    // K6 expressed through its 15 binary edges: tw = 5, but five wide
    // scopes are unnecessary — 3 edges cover any bag: ghw = hw = 3.
    let h = gen::clique_hypergraph(6);
    let cfg = SearchConfig::default();

    let tw = astar_tw(&h.primal_graph(), &cfg);
    let ghw = bb_ghw(&h, &cfg).unwrap();
    let (hw, hd) = hypertree_width(&h, 1).unwrap();
    println!(
        "clique_6: tw = {}, ghw = {}, hw = {}",
        tw.upper, ghw.upper, hw
    );
    assert!(ghw.upper <= hw);

    println!("\n--- tree decomposition (DOT) ---");
    let td = td_of_hypergraph(&h, tw.ordering.as_ref().unwrap());
    print!("{}", tree_decomposition_to_dot(&td, |v| format!("v{v}")));

    println!("\n--- hypertree decomposition (DOT) ---");
    hd.validate_hypertree(&h).unwrap();
    print!("{}", ghd_to_dot(&hd, &h));
}
