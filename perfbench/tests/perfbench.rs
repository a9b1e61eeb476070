//! The benchmark's own checks: deterministic generators, workload
//! properties the design relies on, and a smoke-size run of every
//! workload that must report every metric `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (debug builds work, only slower).

use std::collections::HashSet;
use std::path::PathBuf;

use htd_core::Json;
use htd_hypergraph::canonical::canonical_form;
use htd_perfbench::answer::solve_request;
use htd_perfbench::answer::Source;
use htd_perfbench::cold::Stream;
use htd_perfbench::gen::{solve_pool, Rng};
use htd_perfbench::{
    connect, run, served, start_server, stop_server, timed_request, Args, RunOutput, Workload,
};
use htd_query::{parse_query, FileAccess};

fn answer_texts(w: Workload, seed: u64) -> Vec<String> {
    let mut s = Source::new(w, seed);
    let mut texts: Vec<String> = s.warmup().into_iter().map(|c| c.text).collect();
    texts.extend(s.batch(24).into_iter().map(|c| c.text));
    texts
}

fn cold_texts(seed: u64) -> Vec<String> {
    Stream::new(seed)
        .batch(80)
        .into_iter()
        .map(|p| p.text)
        .collect()
}

#[test]
fn generators_give_identical_bytes_for_a_seed() {
    for w in [Workload::AnswerNewShapes, Workload::AnswerRepeatShapes] {
        assert_eq!(answer_texts(w, 7), answer_texts(w, 7), "{}", w.name());
        assert_ne!(
            answer_texts(w, 7),
            answer_texts(w, 8),
            "{}: seeds must differ",
            w.name()
        );
    }
    assert_eq!(cold_texts(7), cold_texts(7));
    assert_ne!(cold_texts(7), cold_texts(8));
}

#[test]
fn new_shape_fingerprints_are_pairwise_distinct() {
    let mut s = Source::new(Workload::AnswerNewShapes, 3);
    let mut cases = s.warmup();
    for _ in 0..10 {
        cases.extend(s.batch(16));
    }
    let mut seen = HashSet::new();
    for c in &cases {
        // fingerprint of the query as the server parses it
        let q = parse_query(&c.text, &FileAccess::Deny).expect("generated query parses");
        assert!(
            seen.insert(canonical_form(&q.csp.hypergraph()).bytes),
            "shape {} repeats",
            c.shape
        );
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    match doc.get(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn smoke(w: Workload, trace: bool) -> RunOutput {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let args = Args {
        min_requests: 20,
        setups: 2,
        ..Args::new(w, 5, 0.4, trace, dir)
    };
    let out = run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(out.failed, 0, "{} failures: {:?}", w.name(), out.failures);
    assert!(out.attempted > 0);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want = benchmark_names(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(names, want, "{} trace={trace}", w.name());
    assert!(
        out.metrics.iter().all(|m| m.value.is_finite()),
        "{}: {:?}",
        w.name(),
        out.metrics
    );
    out
}

fn info<'a>(out: &'a RunOutput, key: &str) -> &'a str {
    out.info
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("no {key}"))
}

/// One test, so that the runs never overlap: the metric registry they
/// read their counters from is process-wide.
#[test]
fn smoke_runs_report_every_metric_without_failures() {
    for w in Workload::ALL {
        let out = smoke(w, false);
        match w {
            // every timed request reuses a cached shape
            Workload::AnswerRepeatShapes => {
                assert_eq!(info(&out, "hit_samples"), info(&out, "samples"))
            }
            // no shape is ever reused
            Workload::AnswerNewShapes => assert_eq!(info(&out, "hit_samples"), "0"),
            // no instance is ever served from the result cache
            Workload::SolveCold => assert_eq!(info(&out, "cached_responses"), "0"),
        }
        let traced = smoke(w, true);
        assert!(!traced.spans.is_empty(), "{}: no spans", w.name());
        assert!(traced.table.contains("dominant layer"), "{}", traced.table);
    }
}

/// Relabeled re-sends of solved instances hit the result cache. They are
/// held out of `solve_cold` because the hit's witness keeps the vertex
/// names of the first send; the test records how many still pass the
/// oracle as sent.
#[test]
fn relabeled_resends_hit_the_result_cache() {
    let server = start_server(None).expect("server starts");
    let mut client = connect(&server).expect("client connects");
    let mut relabel = Rng::new(11, 9);
    let (mut hits, mut valid) = (0, 0);
    let pool = solve_pool();
    for (i, inst) in pool.iter().enumerate() {
        let text = inst.render(None);
        let first =
            served(timed_request(&mut client, &solve_request(inst, &text, format!("a{i}"))).1)
                .expect("first send is served");
        assert!(!first.cached, "instance {i} hit before its first send");
        let again = inst.render(Some(&mut relabel));
        let r = served(timed_request(&mut client, &solve_request(inst, &again, format!("b{i}"))).1)
            .expect("re-send is served");
        assert!(r.cached, "relabeled re-send {i} missed the result cache");
        hits += 1;
        let (problem, _) = htd_service::parse_problem(inst.format(), &again, inst.objective)
            .expect("re-send parses");
        let outcome = r.outcome.expect("re-send has an outcome");
        valid += usize::from(htd_check::verify_outcome(&problem, &outcome).is_valid());
    }
    drop(client);
    stop_server(server);
    assert_eq!(hits, pool.len());
    eprintln!("relabeled hits whose witness passes the oracle as sent: {valid}/{hits}");
}
