//! The repository benchmark: three seeded workloads sent over loopback to
//! an `htd_service::Server` running in this process, with every response
//! checked, end-to-end metrics measured untraced, and a traced run that
//! splits each request's time across the workspace's crates. See
//! `README.md` in this directory for the workloads, metrics and layers.

pub mod answer;
pub mod check;
pub mod cold;
pub mod gen;
pub mod host;
pub mod replay;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use htd_service::{Client, Request, Response, ServeOptions, Server, Status};

use crate::stats::{median, quantile};
use crate::trace::Span;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Boolean queries whose shapes were never seen: search dominates.
    AnswerNewShapes,
    /// Fresh data on a few cached shapes: evaluation dominates.
    AnswerRepeatShapes,
    /// `tw` and `ghw` instances never seen before, solved cold into the
    /// store.
    SolveCold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::AnswerNewShapes,
        Workload::AnswerRepeatShapes,
        Workload::SolveCold,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswerNewShapes => "answer_new_shapes",
            Workload::AnswerRepeatShapes => "answer_repeat_shapes",
            Workload::SolveCold => "solve_cold",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed seconds to measure (split in halves by a traced run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest timed requests.
    pub min_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where spans, tables, results and the store live.
    pub out_dir: PathBuf,
}

impl Args {
    /// Settings of a measured run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Args {
        Args {
            workload,
            seed,
            seconds,
            trace,
            min_requests: 200,
            setups: 5,
            out_dir,
        }
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Requests sent and checked, the quality probe's included.
    pub attempted: u64,
    /// Requests that failed, were refused, timed out or were wrong.
    pub failed: u64,
    /// First failure messages.
    pub failures: Vec<String>,
    /// Metrics, end-to-end or per-layer by run kind.
    pub metrics: Vec<Metric>,
    /// Sample counts and other facts recorded with the result.
    pub info: Vec<(&'static str, String)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Per-layer tables of a traced run.
    pub table: String,
}

impl RunOutput {
    /// Counts one checked request.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`
        self.metrics.push(Metric {
            name,
            value: value + 0.0,
            unit,
        });
    }
}

/// Read timeout of the benchmark's clients: far beyond the server's own
/// default deadline, so a server-side timeout answers first.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall-clock cap on a run's timed loop, keeping a run well inside its
/// three minutes even on a slow host.
pub const MAX_LOOP: Duration = Duration::from_secs(120);

/// Starts a server with the default options except for the listen
/// address, logging and the store directory.
pub fn start_server(store: Option<PathBuf>) -> Result<Server, String> {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        log: false,
        store_dir: store,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Drains and joins a server.
pub fn stop_server(server: Server) {
    server.request_shutdown();
    server.wait();
}

/// A connected client.
pub fn connect(server: &Server) -> Result<Client, String> {
    let mut c = Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(CLIENT_TIMEOUT));
    Ok(c)
}

/// Sends one request and times it from send to full response.
pub fn timed_request(client: &mut Client, req: &Request) -> (f64, Result<Response, String>) {
    let t = Instant::now();
    let r = client.request(req).map_err(|e| format!("transport: {e}"));
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// The response, or why it does not count as served.
pub fn served(r: Result<Response, String>) -> Result<Response, String> {
    let r = r?;
    if r.status != Status::Ok {
        return Err(format!(
            "status {}: {}",
            r.status.name(),
            r.error.as_deref().unwrap_or("")
        ));
    }
    Ok(r)
}

/// One timed request's client-side record.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Send to full response.
    pub latency_ms: f64,
    /// Served from the workload's cache (shape cache for answers, result
    /// cache for solves).
    pub hit: bool,
}

/// The end-to-end metrics shared by every workload, in `BENCHMARK.json`
/// order but for `budgeted_width_sum`, which the caller adds last.
/// `success_ratio` counts the requests checked so far.
pub fn end_to_end(out: &mut RunOutput, samples: &[Sample], timed_s: f64, setup_s: &[f64]) {
    let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    out.metric("latency_p50_ms", quantile(&all, 0.5), "ms");
    out.metric("latency_p95_ms", quantile(&all, 0.95), "ms");
    let ok = out.attempted.saturating_sub(out.failed) as f64;
    out.metric(
        "throughput_rps",
        samples.len() as f64 / timed_s.max(1e-9),
        "1/s",
    );
    out.metric(
        "success_ratio",
        stats::ratio(ok, out.attempted as f64),
        "ratio",
    );
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.info.push(("samples", samples.len().to_string()));
    out.info.push((
        "hit_samples",
        samples.iter().filter(|s| s.hit).count().to_string(),
    ));
    out.info.push(("timed_s", format!("{timed_s:.3}")));
    out.info.push(("setup_runs_s", format!("{setup_s:?}")));
}

/// Per-layer values that do not come from span durations.
#[derive(Clone, Debug, Default)]
pub struct LayerValues {
    /// Share of answer requests whose decomposition came from the shape cache.
    pub shape_hit_ratio: f64,
    /// Search nodes expanded per request.
    pub expansions: f64,
    /// Share of searches that proved their width.
    pub exact_ratio: f64,
    /// Set-cover cache lookups per request.
    pub cover_lookups: f64,
    /// Share of set-cover cache lookups that hit.
    pub cover_hit_ratio: f64,
    /// Mean width of the decompositions built for answers.
    pub width_mean: f64,
    /// Tuples in the materialized node relations, per request.
    pub node_tuples: f64,
    /// Solutions walked by enumeration, per request.
    pub walked: f64,
    /// Time queued before a worker took the request.
    pub queue_wait_ms: f64,
    /// Worker time per queued request, as the server measures it.
    pub worker_ms: f64,
    /// Client latency minus worker time.
    pub overhead_ms: f64,
    /// Share of solve requests served from the result cache.
    pub result_cache_hit_ratio: f64,
    /// Store records appended during the traced phase.
    pub store_appends: f64,
    /// Store size at the end of the run.
    pub store_bytes: f64,
    /// Restart onto the store: open, re-verify and warm the cache.
    pub store_replay_ms: f64,
    /// Re-verifying every stored record with the `htd-check` oracle.
    pub verify_ms: f64,
    /// Server handling time no replayed layer call accounts for.
    pub unattributed_ms: f64,
    /// Traced-half median latency over untraced-half median latency.
    pub overhead_pct: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. Times of replayed
/// calls are their span totals divided by the traced requests.
pub fn per_layer_metrics(out: &mut RunOutput, spans: &[Span], requests: usize, v: &LayerValues) {
    let n = requests.max(1) as f64;
    let ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum::<f64>()
            / n
    };
    let rows: [(&'static str, f64, &'static str); 28] = [
        ("query.parse_ms", ms("query.parse"), "ms"),
        ("query.shape_cache_hit_ratio", v.shape_hit_ratio, "ratio"),
        ("hypergraph.canonical_ms", ms("hypergraph.canonical"), "ms"),
        ("hypergraph.parse_ms", ms("hypergraph.parse"), "ms"),
        ("search.solve_ms", ms("search.solve"), "ms"),
        ("search.expansions", v.expansions, "count"),
        ("search.exact_ratio", v.exact_ratio, "ratio"),
        ("setcover.cover_cache_lookups", v.cover_lookups, "count"),
        ("setcover.cover_cache_hit_ratio", v.cover_hit_ratio, "ratio"),
        ("core.td_build_ms", ms("core.td_build"), "ms"),
        ("core.width_mean", v.width_mean, "width"),
        ("csp.estimate_ms", ms("csp.estimate"), "ms"),
        ("csp.node_relations_ms", ms("csp.node_relations"), "ms"),
        ("csp.node_tuples", v.node_tuples, "count"),
        ("csp.semijoin_ms", ms("csp.semijoin"), "ms"),
        ("csp.count_ms", ms("csp.count"), "ms"),
        ("csp.enumerate_ms", ms("csp.enumerate"), "ms"),
        ("csp.solutions_walked", v.walked, "count"),
        ("service.queue_wait_ms", v.queue_wait_ms, "ms"),
        ("service.worker_ms", v.worker_ms, "ms"),
        ("service.overhead_ms", v.overhead_ms, "ms"),
        (
            "service.result_cache_hit_ratio",
            v.result_cache_hit_ratio,
            "ratio",
        ),
        ("service.store_appends", v.store_appends, "count"),
        ("service.store_bytes", v.store_bytes, "bytes"),
        ("service.store_replay_ms", v.store_replay_ms, "ms"),
        ("check.verify_ms", v.verify_ms, "ms"),
        ("trace.unattributed_ms", v.unattributed_ms, "ms"),
        ("trace.overhead_pct", v.overhead_pct, "%"),
    ];
    for (name, value, unit) in rows {
        out.metric(name, value, unit);
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    match args.workload {
        Workload::AnswerNewShapes | Workload::AnswerRepeatShapes => answer::run(args),
        Workload::SolveCold => cold::run(args),
    }
}
