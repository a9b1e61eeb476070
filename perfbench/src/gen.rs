//! Seeded input generators. Everything the server is sent is made here
//! from the workload seed, so the same seed gives the same bytes. The
//! generators use their own RNG rather than the workspace's, so a change
//! to the program never changes the benchmark's inputs.

use std::collections::HashSet;
use std::fmt::Write as _;

use htd_csp::{Constraint, Csp};
use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::Hypergraph;
use htd_query::AnswerMode;
use htd_search::Objective;
use htd_service::InstanceFormat;

/// SplitMix64: small, fast and stable across platforms and releases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo + 1)) as u32
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// The generator of the structures (query shapes, graphs, hypergraphs)
/// behind `stream`. Structures are the same for every seed; the run seed
/// decides the data, the names, the relabelings and the request order.
/// Search cost is heavy-tailed in the structure, so structures drawn per
/// seed would make the seeds, not the program, decide the tail latencies.
pub fn structure_rng(stream: u64) -> Rng {
    Rng::new(0x5EED_57AC, stream)
}

/// One conjunctive query with its data. The reference [`Csp`] is built
/// directly from the generated structure, not by parsing `text`, so the
/// answer checks do not share the program's parser.
#[derive(Clone, Debug)]
pub struct QueryCase {
    /// The query as sent to the server.
    pub text: String,
    /// The same query as a CSP over variables `0..n` and values `0..d`.
    pub csp: Csp,
    /// Head variables, in head order.
    pub head: Vec<u32>,
    /// Evaluation mode.
    pub mode: AnswerMode,
    /// Enumeration limit (enumeration mode only).
    pub limit: Option<u64>,
    /// Index of the shape (repeat workload) or of the request.
    pub shape: usize,
}

/// A query's structure: atoms as variable lists over `0..n`.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Number of variables.
    pub n: u32,
    /// Atom scopes.
    pub atoms: Vec<Vec<u32>>,
}

impl Shape {
    /// The query hypergraph (vertices `0..n`, one edge per atom).
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(self.n, self.atoms.clone())
    }
}

/// Relation data for one request on a shape.
struct Data {
    domain: u32,
    relations: Vec<Vec<Vec<u32>>>,
}

/// Makes `size` distinct tuples per atom over `0..domain`, containing the
/// projection of each planted assignment.
fn make_data(shape: &Shape, domain: u32, size: usize, planted: &[Vec<u32>], rng: &mut Rng) -> Data {
    let relations = shape
        .atoms
        .iter()
        .map(|scope| {
            let mut seen = HashSet::new();
            let mut tuples = Vec::with_capacity(size);
            for a in planted {
                let t: Vec<u32> = scope.iter().map(|&v| a[v as usize]).collect();
                if seen.insert(t.clone()) {
                    tuples.push(t);
                }
            }
            let space = u64::from(domain).pow(scope.len() as u32);
            let size = size.min(space as usize);
            while tuples.len() < size {
                let t: Vec<u32> = scope
                    .iter()
                    .map(|_| rng.below(u64::from(domain)) as u32)
                    .collect();
                if seen.insert(t.clone()) {
                    tuples.push(t);
                }
            }
            rng.shuffle(&mut tuples);
            tuples
        })
        .collect();
    Data { domain, relations }
}

/// Renders the query text and its reference CSP. Variable names carry a
/// per-request prefix so that repeated shapes are renamed each time.
fn render(shape: &Shape, data: &Data, head: &[u32], prefix: &str) -> (String, Csp) {
    let mut text = String::new();
    let var = |v: u32| format!("{prefix}{v}");
    let head_names: Vec<String> = head.iter().map(|&v| var(v)).collect();
    let _ = write!(text, "Q({}) :- ", head_names.join(", "));
    let body: Vec<String> = shape
        .atoms
        .iter()
        .enumerate()
        .map(|(i, scope)| {
            let args: Vec<String> = scope.iter().map(|&v| var(v)).collect();
            format!("R{i}({})", args.join(", "))
        })
        .collect();
    let _ = writeln!(text, "{}.", body.join(", "));
    let mut csp = Csp::uniform(shape.n, data.domain);
    for (i, (scope, tuples)) in shape.atoms.iter().zip(&data.relations).enumerate() {
        let _ = write!(text, "R{i}:");
        for (k, t) in tuples.iter().enumerate() {
            let sep = if k == 0 { " " } else { " ; " };
            text.push_str(sep);
            let vals: Vec<String> = t.iter().map(u32::to_string).collect();
            text.push_str(&vals.join(" "));
        }
        text.push_str(" .\n");
        csp.add_constraint(Constraint::new(
            format!("R{i}"),
            scope.clone(),
            tuples.clone(),
        ));
    }
    (text, csp)
}

fn random_assignment(n: u32, domain: u32, rng: &mut Rng) -> Vec<u32> {
    (0..n)
        .map(|_| rng.below(u64::from(domain)) as u32)
        .collect()
}

/// The query shape of `answer_new_shapes` request `index`: a circulant on
/// 15–17 variables (a cycle `v_i – v_{i+1}` plus a chord family `v_i – v_{i+s}`)
/// with a few edges rewired at random, covered by binary atoms and by
/// ternary atoms `(v_i, v_{i+1}, v_{i+s})`. Circulants are symmetric, so
/// lower bounds stay weak and decomposition search has real work to do.
pub fn new_shape(rng: &mut Rng, index: usize) -> Shape {
    let (n, s) = NEW_SHAPE_SIZES[index % NEW_SHAPE_SIZES.len()];
    circulant(rng, n, s)
}

/// `(variables, chord shift)` of the new shapes, cycled through so that
/// every run sends the same mix of sizes whatever its seed.
pub const NEW_SHAPE_SIZES: [(u32, u32); 4] = [(15, 4), (16, 4), (17, 5), (16, 6)];

/// A circulant `C_n(1, s)` with 1–2 edges rewired and some edge pairs
/// merged into ternary atoms.
fn circulant(rng: &mut Rng, n: u32, s: u32) -> Shape {
    let edge = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    for v in 0..n {
        edges.insert(edge(v, (v + 1) % n));
        edges.insert(edge(v, (v + s) % n));
    }
    // rewire a few edges so that every shape is new
    for _ in 0..rng.range(1, 3) {
        let mut all: Vec<(u32, u32)> = edges.iter().copied().collect();
        all.sort_unstable();
        let (a, b) = all[rng.below(all.len() as u64) as usize];
        edges.remove(&(a, b));
        loop {
            let (c, d) = (
                rng.below(u64::from(n)) as u32,
                rng.below(u64::from(n)) as u32,
            );
            if c != d && edges.insert(edge(c, d)) {
                break;
            }
        }
    }
    let mut atoms: Vec<Vec<u32>> = Vec::new();
    for v in (0..n).step_by(3) {
        let t = [v, (v + 1) % n, (v + s) % n];
        let (p, q) = (edge(t[0], t[1]), edge(t[0], t[2]));
        if edges.contains(&p) && edges.contains(&q) && rng.chance(1, 2) {
            edges.remove(&p);
            edges.remove(&q);
            atoms.push(t.to_vec());
        }
    }
    let mut rest: Vec<(u32, u32)> = edges.into_iter().collect();
    rest.sort_unstable();
    atoms.extend(rest.into_iter().map(|(a, b)| vec![a, b]));
    rng.shuffle(&mut atoms);
    Shape { n, atoms }
}

/// The `answer_new_shapes` requests: `count` boolean queries whose shapes
/// (drawn from `shapes`) are pairwise distinct by canonical fingerprint and
/// distinct from every fingerprint in `seen`, which is extended. The data
/// are drawn from `rng`.
pub fn new_shape_queries(
    shapes: &mut Rng,
    rng: &mut Rng,
    count: usize,
    seen: &mut HashSet<Vec<u8>>,
    first_index: usize,
) -> Vec<QueryCase> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let shape = new_shape(shapes, first_index + out.len());
        if !seen.insert(canonical_form(&shape.hypergraph()).bytes) {
            continue;
        }
        let planted: Vec<Vec<u32>> = if rng.chance(1, 2) {
            vec![random_assignment(shape.n, 3, rng)]
        } else {
            Vec::new()
        };
        let data = make_data(&shape, 3, 5, &planted, rng);
        let head: Vec<u32> = (0..shape.n).collect();
        let (text, csp) = render(&shape, &data, &head, "v");
        out.push(QueryCase {
            text,
            csp,
            head,
            mode: AnswerMode::Boolean,
            limit: None,
            shape: first_index + out.len(),
        });
    }
    out
}

/// A shape for `answer_repeat_shapes`: a random triangulated polygon on
/// `n` variables, i.e. a cycle with chords (an outerplanar 2-tree, width
/// 2). Every bag of an optimal decomposition is a triangle of atoms, and
/// each variable after the first two has two neighbours before it.
pub fn triangulated_polygon(rng: &mut Rng, n: u32) -> Shape {
    let mut atoms: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
    // the polygon's boundary edges, where a new variable may attach
    let mut boundary: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (0, 2)];
    for v in 3..n {
        let (a, b) = boundary.swap_remove(rng.below(boundary.len() as u64) as usize);
        atoms.push(vec![a, v]);
        atoms.push(vec![b, v]);
        boundary.push((a, v));
        boundary.push((b, v));
    }
    Shape { n, atoms }
}

/// Parameters of `answer_repeat_shapes`.
pub const REPEAT_SHAPES: usize = 8;
/// Enumeration limit of the projecting `enum` requests.
pub const ENUM_LIMIT: u64 = 20;

/// The repeated shapes of `answer_repeat_shapes`, on 10–14 variables.
/// They are the same for every seed, so that seeds vary the data and the
/// request order but not how much work a shape implies.
pub fn repeat_shapes() -> Vec<Shape> {
    let mut rng = structure_rng(2);
    (0..REPEAT_SHAPES)
        .map(|i| triangulated_polygon(&mut rng, 10 + (i % 5) as u32))
        .collect()
}

/// One `answer_repeat_shapes` request: shape `shape` with fresh data in
/// mode `index % 3` (bool with a full witness, count over every
/// variable, enumeration of a two-variable projection with a limit).
pub fn repeat_query(shapes: &[Shape], rng: &mut Rng, index: usize) -> QueryCase {
    let shape_ix = rng.below(shapes.len() as u64) as usize;
    repeat_query_on(shapes, shape_ix, rng, index)
}

/// Request `index` of `answer_repeat_shapes` on shape `shape_ix`.
pub fn repeat_query_on(
    shapes: &[Shape],
    shape_ix: usize,
    rng: &mut Rng,
    index: usize,
) -> QueryCase {
    let shape = &shapes[shape_ix];
    let prefix = format!("q{index}_");
    let all: Vec<u32> = (0..shape.n).collect();
    let (mode, domain, size, plant, head, limit) = match index % 3 {
        0 => (AnswerMode::Boolean, 24, 160, 1, all, None),
        1 => (AnswerMode::Count, 24, 100, 3, all, None),
        _ => (
            AnswerMode::Enumerate,
            24,
            100,
            ENUM_LIMIT as usize + 4,
            vec![0, 1],
            Some(ENUM_LIMIT),
        ),
    };
    // planted assignments; enumeration plants distinct head projections
    let mut planted: Vec<Vec<u32>> = Vec::new();
    let mut heads = HashSet::new();
    while planted.len() < plant {
        let a = random_assignment(shape.n, domain, rng);
        let h: Vec<u32> = head.iter().map(|&v| a[v as usize]).collect();
        if mode != AnswerMode::Enumerate || heads.insert(h) {
            planted.push(a);
        }
    }
    let data = make_data(shape, domain, size, &planted, rng);
    let (text, csp) = render(shape, &data, &head, &prefix);
    QueryCase {
        text,
        csp,
        head,
        mode,
        limit,
        shape: shape_ix,
    }
}

/// Node budget of the hard `solve_cold` instances.
pub const HARD_BUDGET: u64 = 2_000;
/// Number of hard, node-budgeted instances per seed.
pub const HARD_INSTANCES: usize = 10;
/// Instances the `solve_cold` set-up solves to fill the store.
pub const POOL_INSTANCES: usize = 24;

/// A `solve_cold` instance: a graph (`tw`, sent as `.gr`) or a hypergraph
/// (`ghw`, sent as `.hg`), kept unlabeled so every send can relabel it.
#[derive(Clone, Debug)]
pub struct SolveInstance {
    /// What is asked.
    pub objective: Objective,
    /// Number of vertices.
    pub n: u32,
    /// Edges (pairs for `tw`) or hyperedges (`ghw`).
    pub edges: Vec<Vec<u32>>,
    /// Node budget sent with the request, if any.
    pub budget: Option<u64>,
}

impl SolveInstance {
    /// The wire format the instance is sent in.
    pub fn format(&self) -> InstanceFormat {
        match self.objective {
            Objective::Treewidth => InstanceFormat::PaceGr,
            _ => InstanceFormat::Hg,
        }
    }

    /// The instance text under a fresh random vertex relabeling and edge
    /// order (`rng`), or as generated (`None`).
    pub fn render(&self, rng: Option<&mut Rng>) -> String {
        let mut perm: Vec<u32> = (0..self.n).collect();
        let mut edges = self.edges.clone();
        if let Some(rng) = rng {
            perm = rng.permutation(self.n);
            rng.shuffle(&mut edges);
            for e in &mut edges {
                rng.shuffle(e);
            }
        }
        let mut out = String::new();
        match self.objective {
            Objective::Treewidth => {
                let _ = writeln!(out, "p tw {} {}", self.n, edges.len());
                for e in &edges {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        perm[e[0] as usize] + 1,
                        perm[e[1] as usize] + 1
                    );
                }
            }
            _ => {
                for (k, e) in edges.iter().enumerate() {
                    let vs: Vec<String> = e
                        .iter()
                        .map(|&v| format!("x{}", perm[v as usize]))
                        .collect();
                    let sep = if k + 1 == edges.len() { "." } else { "," };
                    let _ = writeln!(out, "e{k}({}){sep}", vs.join(","));
                }
            }
        }
        out
    }
}

/// A fresh `solve_cold` instance: a `tw` circulant graph or a `ghw`
/// circulant hypergraph (with ternary atoms), alternating by `index`.
pub fn solve_instance(rng: &mut Rng, index: usize) -> SolveInstance {
    if index % 2 == 0 {
        let (n, s) = NEW_SHAPE_SIZES[(index / 2) % NEW_SHAPE_SIZES.len()];
        let shape = circulant(rng, n, s);
        let mut pairs: HashSet<(u32, u32)> = HashSet::new();
        for a in &shape.atoms {
            for (i, &u) in a.iter().enumerate() {
                for &v in &a[i + 1..] {
                    pairs.insert((u.min(v), u.max(v)));
                }
            }
        }
        let mut edges: Vec<Vec<u32>> = pairs.into_iter().map(|(u, v)| vec![u, v]).collect();
        edges.sort_unstable();
        SolveInstance {
            objective: Objective::Treewidth,
            n,
            edges,
            budget: None,
        }
    } else {
        let n = 14 + ((index / 2) % 3) as u32;
        let shape = circulant(rng, n, 4);
        SolveInstance {
            objective: Objective::GeneralizedHypertreeWidth,
            n,
            edges: shape.atoms,
            budget: None,
        }
    }
}

/// The instances the `solve_cold` set-up solves into the store.
pub fn solve_pool() -> Vec<SolveInstance> {
    let mut rng = structure_rng(4);
    (0..POOL_INSTANCES)
        .map(|i| solve_instance(&mut rng, i))
        .collect()
}

/// The hard instances: `tw` of random graphs with 40 vertices and 120
/// edges, far beyond what the node budget can prove exact.
pub fn hard_instances() -> Vec<SolveInstance> {
    let mut rng = structure_rng(5);
    (0..HARD_INSTANCES)
        .map(|_| {
            let n = 40;
            let mut pairs: HashSet<(u32, u32)> = HashSet::new();
            while pairs.len() < 120 {
                let (a, b) = (
                    rng.below(u64::from(n)) as u32,
                    rng.below(u64::from(n)) as u32,
                );
                if a != b {
                    pairs.insert((a.min(b), a.max(b)));
                }
            }
            let mut edges: Vec<Vec<u32>> = pairs.into_iter().map(|(a, b)| vec![a, b]).collect();
            edges.sort_unstable();
            SolveInstance {
                objective: Objective::Treewidth,
                n,
                edges,
                budget: Some(HARD_BUDGET),
            }
        })
        .collect()
}

/// What request `index` of the `solve_cold` stream sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdKind {
    /// A fresh instance under a seeded relabeling.
    New,
    /// Hard instance `i`, with its node budget, as generated.
    Hard(usize),
}

/// Every `HARD_EVERY`-th request of the stream carries a hard instance
/// until all [`HARD_INSTANCES`] are sent.
pub const HARD_EVERY: usize = 5;

/// The stream plan: every run sends all hard instances among its first
/// `HARD_EVERY * HARD_INSTANCES` requests; the rest are new.
pub fn cold_kind(index: usize) -> ColdKind {
    let slot = index / HARD_EVERY;
    if index % HARD_EVERY + 1 == HARD_EVERY && slot < HARD_INSTANCES {
        ColdKind::Hard(slot)
    } else {
        ColdKind::New
    }
}
