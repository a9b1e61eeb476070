//! Exact search algorithms for treewidth and generalized hypertree width.
//!
//! Treewidth and ghw are both the minimum over elimination orderings of
//! the worst bag cost (Theorem 3 / Definition 17); only the cost differs.
//! So each search below is written once, generic over a width evaluator
//! (`|bag| − 1` for tw, the exact edge-cover number for ghw):
//!
//! * [`bb`] — depth-first branch and bound: BB-tw (the QuickBB / BB-tw
//!   scheme of thesis §4.4) and BB-ghw (Fig. 8.3), sound and complete
//!   by Theorem 3;
//! * [`astar`] — best-first A*: A*-tw (Fig. 5.1) and A*-ghw (Fig. 9.1);
//! * [`parallel`] — BB-tw split at the root across worker threads.
//!
//! Beside them sit three engines of other shapes:
//!
//! * [`dp_tw`] — dynamic programming over vertex subsets for treewidth,
//!   the exact baseline for small graphs;
//! * [`balsep`] — balanced-separator nested dissection (upper bounds);
//! * [`detk`] — det-k-decomp, the canonical backtracking algorithm for
//!   *hypertree* decompositions (`hw`), included as the literature
//!   baseline satisfying `ghw ≤ hw`.
//!
//! The searches share [`SearchConfig`] (budgets and pruning toggles) and
//! report a [`SearchOutcome`] with anytime lower/upper bounds: interrupted
//! runs still return valid bounds, exactly as the thesis's one-hour-limit
//! runs report the `f`-value of the last visited state as a lower bound
//! (§5.3).
//!
//! The preferred entry point is the unified API in [`portfolio`]: build a
//! [`Problem`], pick a [`SearchConfig`], call [`solve`], read an
//! [`Outcome`]. With `num_threads > 1` it runs all engines concurrently
//! against a shared [`Incumbent`]. The per-engine functions remain
//! available in their modules, e.g. [`bb::bb_tw`] or [`astar::astar_ghw`].

#![warn(missing_docs)]

pub mod astar;
pub mod balsep;
pub mod bb;
pub mod config;
pub mod detk;
pub mod dp_tw;
pub mod incumbent;
pub mod parallel;
pub mod portfolio;
pub mod pruning;
pub mod registry;
pub(crate) mod width;

pub use config::{Engine, SearchConfig, SearchOutcome, SearchStats};
pub use detk::{det_k_decomp, hypertree_width};
pub use dp_tw::{dp_treewidth, dp_treewidth_budgeted};
pub use incumbent::Incumbent;
pub use parallel::bb_tw_parallel;
pub use portfolio::{solve, EngineReport, Objective, Outcome, Problem};
pub use registry::{
    engine_specs, engines_from_names, register_engine, registered_engine_names, EngineContext,
    EngineSpec,
};
